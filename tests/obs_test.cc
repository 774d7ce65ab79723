// Unit tests for the observability layer: log-bucketed latency histograms,
// the binary event tracer (wire format, ring flushing, digest), and the
// metrics registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <deque>
#include <numeric>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace gms {
namespace {

// --------------------------------------------------------------------------
// LatencyHistogram
// --------------------------------------------------------------------------

TEST(LatencyHistogramTest, SmallValuesGetExactBuckets) {
  for (uint64_t v = 0; v < 4; v++) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(v), static_cast<int>(v)) << v;
    EXPECT_EQ(LatencyHistogram::BucketLowerBound(static_cast<int>(v)), v);
  }
}

TEST(LatencyHistogramTest, BucketBoundsBracketTheirValues) {
  Rng rng(11);
  for (int i = 0; i < 20000; i++) {
    const uint64_t v = rng.NextBelow(1ULL << 50) + 1;
    const int idx = LatencyHistogram::BucketIndex(v);
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, LatencyHistogram::kNumBuckets);
    EXPECT_LE(LatencyHistogram::BucketLowerBound(idx), v);
    if (idx + 1 < LatencyHistogram::kNumBuckets) {
      EXPECT_GT(LatencyHistogram::BucketLowerBound(idx + 1), v);
    }
  }
}

TEST(LatencyHistogramTest, QuarterOctaveWidth) {
  // Above the exact range, each bucket's width is 1/4 of its power of two,
  // so the half-width is at most 12.5% of the lower bound.
  for (int idx = 8; idx + 1 < LatencyHistogram::kNumBuckets; idx++) {
    const uint64_t lo = LatencyHistogram::BucketLowerBound(idx);
    const uint64_t hi = LatencyHistogram::BucketLowerBound(idx + 1);
    ASSERT_GT(hi, lo) << idx;
    EXPECT_LE(static_cast<double>(hi - lo), 0.25 * static_cast<double>(lo))
        << "bucket " << idx << " wider than a quarter octave";
  }
}

TEST(LatencyHistogramTest, QuantileWithinRelativeErrorBound) {
  LatencyHistogram hist;
  std::vector<uint64_t> samples;
  Rng rng(3);
  for (int i = 0; i < 50000; i++) {
    // Latency-like mixture spanning ns..s scales.
    const uint64_t v = 1 + rng.NextBelow(1ULL << (10 + i % 5 * 7));
    samples.push_back(v);
    hist.Record(static_cast<SimTime>(v));
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.1, 0.5, 0.9, 0.95, 0.99}) {
    const auto rank = static_cast<size_t>(q * static_cast<double>(samples.size()));
    const double exact =
        static_cast<double>(samples[std::min(rank, samples.size() - 1)]);
    const double est = static_cast<double>(hist.Quantile(q));
    EXPECT_NEAR(est, exact, 0.125 * exact + 2.0)
        << "q=" << q << " exact=" << exact << " est=" << est;
  }
}

TEST(LatencyHistogramTest, MergeEqualsConcatenation) {
  LatencyHistogram a, b, both;
  Rng rng(7);
  for (int i = 0; i < 3000; i++) {
    const auto v = static_cast<SimTime>(rng.NextBelow(1ULL << 36));
    (i % 2 == 0 ? a : b).Record(v);
    both.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), both.count());
  for (int i = 0; i < LatencyHistogram::kNumBuckets; i++) {
    EXPECT_EQ(a.bucket(i), both.bucket(i)) << i;
  }
  EXPECT_EQ(a.Quantile(0.5), both.Quantile(0.5));
}

// A never-recorded histogram has no bucket storage yet; it must read exactly
// like an all-zero one.
TEST(LatencyHistogramTest, EmptyHistogramQuantilesAreZero) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  for (int i = 0; i < LatencyHistogram::kNumBuckets; i++) {
    ASSERT_EQ(hist.bucket(i), 0u) << "bucket " << i;
  }
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(hist.Quantile(q), 0) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, SingleSampleIsEveryQuantile) {
  LatencyHistogram hist;
  hist.Record(Microseconds(7));
  const SimTime estimate = hist.Quantile(0.5);
  // One sample: every quantile is that sample's bucket estimate, within the
  // quarter-octave bucket resolution.
  EXPECT_NEAR(static_cast<double>(estimate),
              static_cast<double>(Microseconds(7)),
              0.13 * static_cast<double>(Microseconds(7)));
  for (double q : {0.0, 0.01, 0.99, 1.0}) {
    EXPECT_EQ(hist.Quantile(q), estimate) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, OverflowBucketSaturatesInsteadOfIndexingOut) {
  LatencyHistogram hist;
  // Values beyond the last bucket's lower bound all land in the top bucket.
  const uint64_t top = LatencyHistogram::BucketLowerBound(
      LatencyHistogram::kNumBuckets - 1);
  hist.Record(static_cast<SimTime>(top));
  hist.Record(INT64_MAX);
  EXPECT_EQ(LatencyHistogram::BucketIndex(UINT64_MAX),
            LatencyHistogram::kNumBuckets - 1);
  EXPECT_EQ(hist.bucket(LatencyHistogram::kNumBuckets - 1), 2u);
  // Quantiles of a saturated histogram report the top bucket's lower bound
  // (the estimate cannot exceed the representable range).
  EXPECT_GE(hist.Quantile(0.99), static_cast<SimTime>(top));
}

TEST(LatencyHistogramTest, ResetAndNegativeClamp) {
  LatencyHistogram hist;
  hist.Record(-5);  // clamps to bucket 0 rather than indexing off the array
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_EQ(hist.bucket(0), 1u);
  hist.Reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.Quantile(0.5), 0);
}

TEST(LatencyHistogramTest, MergingNeverRecordedHistograms) {
  const LatencyHistogram never;
  // Empty into empty stays empty.
  LatencyHistogram empty;
  empty.Merge(never);
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.bucket(0), 0u);
  EXPECT_EQ(empty.Quantile(0.5), 0);

  // Empty into non-empty changes nothing.
  LatencyHistogram some;
  some.Record(Microseconds(3));
  some.Record(Milliseconds(2));
  const SimTime p50 = some.Quantile(0.5);
  const SimTime p99 = some.Quantile(0.99);
  some.Merge(never);
  EXPECT_EQ(some.count(), 2u);
  EXPECT_EQ(some.Quantile(0.5), p50);
  EXPECT_EQ(some.Quantile(0.99), p99);

  // Non-empty into never-recorded copies the samples over.
  LatencyHistogram target;
  target.Merge(some);
  EXPECT_EQ(target.count(), 2u);
  for (int i = 0; i < LatencyHistogram::kNumBuckets; i++) {
    ASSERT_EQ(target.bucket(i), some.bucket(i)) << "bucket " << i;
  }
  EXPECT_EQ(target.Quantile(0.99), p99);
}

TEST(LatencyHistogramTest, CopiesOfNeverRecordedAndRecordedAreIndependent) {
  const LatencyHistogram never;
  LatencyHistogram copy = never;
  EXPECT_EQ(copy.count(), 0u);
  EXPECT_EQ(copy.bucket(5), 0u);
  copy.Record(5);
  EXPECT_EQ(copy.bucket(5), 1u);
  EXPECT_EQ(never.count(), 0u);
  EXPECT_EQ(never.bucket(5), 0u);

  LatencyHistogram again = copy;
  again.Record(5);
  EXPECT_EQ(again.bucket(5), 2u);
  EXPECT_EQ(copy.bucket(5), 1u);
  EXPECT_EQ(again.Quantile(0.5), copy.Quantile(0.5));
}

// --------------------------------------------------------------------------
// Tracer
// --------------------------------------------------------------------------

std::vector<TraceRecord> ReadTraceFile(const std::string& path,
                                       TraceFileHeader* header) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  EXPECT_EQ(std::fread(header, sizeof(*header), 1, f), 1u);
  std::vector<TraceRecord> records;
  TraceRecord rec;
  while (std::fread(&rec, sizeof(rec), 1, f) == 1) {
    records.push_back(rec);
  }
  std::fclose(f);
  return records;
}

// Mirrors Tracer::digest(): hash each node's record stream independently,
// then fold the per-node (fnv1a, records) pairs in node order.
TraceDigest FoldedDigest(const std::vector<TraceRecord>& records,
                         uint32_t num_nodes) {
  std::vector<TraceDigest> per_node(num_nodes);
  for (const TraceRecord& rec : records) {
    per_node[rec.node].Update(&rec, 1);
  }
  TraceDigest out;
  uint64_t h = out.fnv1a;
  for (const TraceDigest& d : per_node) {
    const uint64_t pair[2] = {d.fnv1a, d.records};
    const auto* bytes = reinterpret_cast<const unsigned char*>(pair);
    for (size_t i = 0; i < sizeof(pair); i++) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
    out.records += d.records;
  }
  out.fnv1a = h;
  return out;
}

TEST(TracerTest, RecordsRoundTripThroughFile) {
  const std::string path = ::testing::TempDir() + "/obs_roundtrip.trc";
  Tracer tracer(/*num_nodes=*/2, /*ring_capacity=*/8);
  ASSERT_TRUE(tracer.OpenFile(path));
  tracer.set_enabled(true);
  TraceEvent(&tracer, Microseconds(5), NodeId{0}, TraceEventKind::kFault,
             Uid{0xAAAA, 0xBBBB}, 1);
  TraceEventRaw(&tracer, Microseconds(7), NodeId{1}, TraceEventKind::kNetSend,
                /*a=*/0, /*b=*/3, /*value=*/8192);
  tracer.Finish();

  TraceFileHeader header{};
  const std::vector<TraceRecord> records = ReadTraceFile(path, &header);
  EXPECT_EQ(std::memcmp(header.magic, kTraceMagic, 8), 0);
  EXPECT_EQ(header.version, kTraceVersion);
  EXPECT_EQ(header.record_size, sizeof(TraceRecord));
  EXPECT_EQ(header.num_nodes, 2u);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].time, Microseconds(5));
  EXPECT_EQ(records[0].a, 0xAAAAu);
  EXPECT_EQ(records[0].b, 0xBBBBu);
  EXPECT_EQ(records[0].value, 1u);
  EXPECT_EQ(records[0].node, 0u);
  EXPECT_EQ(records[0].kind, static_cast<uint16_t>(TraceEventKind::kFault));
  EXPECT_EQ(records[1].value, 8192u);
  EXPECT_EQ(records[1].node, 1u);

  // The digest is the per-node fold over exactly the flushed record bytes.
  EXPECT_EQ(tracer.digest(), FoldedDigest(records, header.num_nodes));
  EXPECT_EQ(tracer.digest().records, 2u);
  std::remove(path.c_str());
}

TEST(TracerTest, FullRingFlushesAndKeepsRecording) {
  Tracer tracer(1, /*ring_capacity=*/4);
  tracer.set_enabled(true);
  for (int i = 0; i < 11; i++) {
    TraceEventRaw(&tracer, i, NodeId{0}, TraceEventKind::kLocalHit, 0, 0,
                  static_cast<uint64_t>(i));
  }
  // 8 records flushed by two full rings; 3 still buffered.
  EXPECT_EQ(tracer.digest().records, 8u);
  tracer.Flush();
  EXPECT_EQ(tracer.digest().records, 11u);
}

TEST(TracerTest, DigestIndependentOfRingCapacityForOneNode) {
  // With a single ring the flush order is the record order no matter when
  // flushes happen, so capacity must not leak into the digest.
  auto run = [](size_t capacity) {
    Tracer tracer(1, capacity);
    tracer.set_enabled(true);
    for (int i = 0; i < 1000; i++) {
      TraceEventRaw(&tracer, i, NodeId{0}, TraceEventKind::kDiskRead, 1, 2,
                    static_cast<uint64_t>(i) * 3);
    }
    tracer.Flush();
    return tracer.digest().ToString();
  };
  EXPECT_EQ(run(3), run(4096));
}

TEST(TracerTest, ValueSaturatesAt32Bits) {
  Tracer tracer(1, 8);
  tracer.set_enabled(true);
  TraceEventRaw(&tracer, 0, NodeId{0}, TraceEventKind::kFaultDone, 0, 0,
                UINT64_MAX);
  tracer.Flush();
  EXPECT_EQ(tracer.digest().records, 1u);
  // Reconstruct what was digested: a saturated value.
  TraceRecord rec{0, 0, 0, UINT32_MAX, 0,
                  static_cast<uint16_t>(TraceEventKind::kFaultDone)};
  EXPECT_EQ(tracer.digest(), FoldedDigest({rec}, 1));
}

TEST(TracerTest, DisabledAndNullAndOutOfRangeRecordNothing) {
  Tracer tracer(1, 8);
  // Runtime-disabled.
  TraceEventRaw(&tracer, 0, NodeId{0}, TraceEventKind::kFault, 0, 0, 0);
  // Null tracer: must be safe everywhere a subsystem is unwired.
  TraceEventRaw(nullptr, 0, NodeId{0}, TraceEventKind::kFault, 0, 0, 0);
  tracer.set_enabled(true);
  // Out-of-range node (e.g. kInvalidNode from an unlabelled disk): dropped.
  TraceEventRaw(&tracer, 0, kInvalidNode, TraceEventKind::kFault, 0, 0, 0);
  TraceEventRaw(&tracer, 0, NodeId{5}, TraceEventKind::kFault, 0, 0, 0);
  tracer.Flush();
  EXPECT_EQ(tracer.digest().records, 0u);
}

TEST(TracerTest, DigestStringFormat) {
  TraceDigest digest;
  const std::string s = digest.ToString();
  EXPECT_EQ(s.substr(0, 6), "fnv1a:");
  EXPECT_EQ(s, "fnv1a:cbf29ce484222325:0");  // FNV offset basis, no records
}

// --------------------------------------------------------------------------
// MetricsRegistry
// --------------------------------------------------------------------------

TEST(MetricsRegistryTest, RegistersAllKindsAndRejectsDuplicates) {
  MetricsRegistry reg;
  uint64_t value = 41;
  Counter counter;
  StatAccumulator stat;
  LatencyHistogram hist;
  EXPECT_TRUE(reg.RegisterValue("a/value", [&] { return value; }));
  EXPECT_TRUE(reg.RegisterCounter("a/counter", [&] { return &counter; }));
  EXPECT_TRUE(reg.RegisterStat("b/stat", [&] { return &stat; }));
  EXPECT_TRUE(reg.RegisterLatency("b/lat", [&] { return &hist; }));
  EXPECT_FALSE(reg.RegisterValue("a/value", [&] { return value; }))
      << "duplicate names must be rejected";
  EXPECT_EQ(reg.size(), 4u);

  counter.Add(100);
  counter.Add(50);
  stat.Add(2.0);
  hist.Record(1000);
  hist.Record(2000);
  hist.Record(4000);
  value = 42;

  EXPECT_EQ(reg.Value("a/value"), 42u);
  EXPECT_EQ(reg.Value("a/counter"), 2u);  // events, not bytes
  EXPECT_EQ(reg.Value("b/stat"), 1u);
  EXPECT_EQ(reg.Value("b/lat"), 3u);
  EXPECT_EQ(reg.Value("nope"), std::nullopt);
  EXPECT_EQ(reg.KindOf("b/lat"), MetricsRegistry::Kind::kLatency);
  EXPECT_EQ(reg.KindOf("nope"), std::nullopt);
}

// A thousand-node cluster registers ~39,000 metrics; registration and
// lookup must stay O(1) each, and indices follow registration order.
TEST(MetricsRegistryTest, ManyMetricsKeepIndicesAndNames) {
  MetricsRegistry reg;
  constexpr size_t kNodes = 2000;
  constexpr const char* kFields[] = {"os/faults", "svc/getpages", "net/bytes"};
  for (size_t n = 0; n < kNodes; n++) {
    for (const char* field : kFields) {
      ASSERT_TRUE(reg.RegisterValue(
          "node" + std::to_string(n) + "/" + field, [n] { return n; }));
    }
  }
  EXPECT_FALSE(reg.RegisterValue("node1999/net/bytes", [] { return 0u; }));
  ASSERT_EQ(reg.size(), kNodes * 3);
  ASSERT_EQ(reg.names().size(), kNodes * 3);
  for (size_t n = 0; n < kNodes; n += 97) {
    const std::string name = "node" + std::to_string(n) + "/svc/getpages";
    const size_t i = reg.IndexOf(name);
    ASSERT_EQ(i, n * 3 + 1);
    EXPECT_EQ(reg.names()[i], name);
    EXPECT_EQ(reg.ValueAt(i), n);
    EXPECT_EQ(reg.Value(name), n);
  }
  EXPECT_EQ(reg.IndexOf("node2000/os/faults"), MetricsRegistry::kInvalidIndex);
}

// A family registers one metric per schema field under its prefix, read
// through its context; names, kinds, lookups and the export all see the
// fields as if each had been registered by name.
TEST(MetricsRegistryTest, FamiliesSpellPrefixPlusSuffix) {
  struct Node {
    uint64_t faults = 0;
    Counter tx;
  };
  const MetricSchema schema({
      MetricField("os/faults",
                  [](const void* c) {
                    return static_cast<const Node*>(c)->faults;
                  }),
      MetricField("net/tx",
                  [](const void* c) {
                    return &static_cast<const Node*>(c)->tx;
                  }),
  });
  Node nodes[3];
  MetricsRegistry reg;
  for (uint64_t i = 0; i < 3; i++) {
    nodes[i].faults = 10 + i;
    nodes[i].tx.Add(100);
    ASSERT_TRUE(reg.RegisterFamily("node" + std::to_string(i) + "/", schema,
                                   &nodes[i]));
  }
  ASSERT_EQ(reg.size(), 6u);
  EXPECT_EQ(reg.names()[0], "node0/os/faults");
  EXPECT_EQ(reg.names()[5], "node2/net/tx");
  EXPECT_EQ(reg.IndexOf("node1/net/tx"), 3u);
  EXPECT_EQ(reg.Value("node2/os/faults"), 12u);
  EXPECT_EQ(reg.KindOf("node0/net/tx"), MetricsRegistry::Kind::kCounter);
  EXPECT_EQ(reg.IndexOf("node1/"), MetricsRegistry::kInvalidIndex);
  EXPECT_EQ(reg.IndexOf("node1/os"), MetricsRegistry::kInvalidIndex);
  EXPECT_EQ(reg.IndexOf("node3/os/faults"), MetricsRegistry::kInvalidIndex);
  nodes[1].faults = 99;  // read live, not copied at registration
  EXPECT_EQ(reg.ValueAt(2), 99u);

  // The export is the one a registry of the same names by getter gives.
  MetricsRegistry by_name;
  for (uint64_t i = 0; i < 3; i++) {
    const Node* n = &nodes[i];
    const std::string p = "node" + std::to_string(i) + "/";
    ASSERT_TRUE(by_name.RegisterValue(p + "os/faults", [n] { return n->faults; }));
    ASSERT_TRUE(by_name.RegisterCounter(p + "net/tx", [n] { return &n->tx; }));
  }
  reg.SnapshotEpoch(Milliseconds(1));
  by_name.SnapshotEpoch(Milliseconds(1));
  EXPECT_EQ(reg.ToJson(), by_name.ToJson());
}

// No two registrations may spell the same name, whichever of a family and
// a one-off metric comes first; a family prefix is one path component.
TEST(MetricsRegistryTest, FamiliesRejectEveryCollision) {
  const MetricSchema schema({
      MetricField("os/faults", [](const void*) { return uint64_t{1}; }),
      MetricField("x", [](const void*) { return uint64_t{2}; }),
  });
  MetricsRegistry reg;
  ASSERT_TRUE(reg.RegisterFamily("a/", schema, nullptr));
  EXPECT_FALSE(reg.RegisterFamily("a/", schema, nullptr)) << "same prefix";
  EXPECT_FALSE(reg.RegisterFamily("b", schema, nullptr)) << "no '/'";
  EXPECT_FALSE(reg.RegisterFamily("a/os/", schema, nullptr))
      << "two path components";
  EXPECT_FALSE(reg.RegisterValue("a/os/faults", [] { return uint64_t{0}; }));
  EXPECT_FALSE(reg.RegisterValue("a/", [] { return uint64_t{0}; }))
      << "a one-off named like a family prefix";
  // A one-off first: the family that would spell it is refused whole.
  ASSERT_TRUE(reg.RegisterValue("c/x", [] { return uint64_t{4}; }));
  EXPECT_FALSE(reg.RegisterFamily("c/", schema, nullptr));
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.Value("a/x"), 2u);
  EXPECT_EQ(reg.Value("c/x"), 4u);
  EXPECT_EQ(reg.IndexOf("c/"), MetricsRegistry::kInvalidIndex);
  // A name with no '/' (even the empty one) is a one-off's whole prefix.
  ASSERT_TRUE(reg.RegisterValue("", [] { return uint64_t{6}; }));
  ASSERT_TRUE(reg.RegisterValue("plain", [] { return uint64_t{7}; }));
  EXPECT_EQ(reg.Value(""), 6u);
  EXPECT_EQ(reg.Value("plain"), 7u);

  // One-offs under a family's first component sort among its names.
  ASSERT_TRUE(reg.RegisterValue("a/p", [] { return uint64_t{5}; }));
  EXPECT_EQ(reg.IndexOf("a/p"), 5u);
  const std::string json = reg.ToJson();
  EXPECT_LT(json.find("\"a/os/faults\""), json.find("\"a/p\""));
  EXPECT_LT(json.find("\"a/p\""), json.find("\"a/x\""));
  EXPECT_LT(json.find("\"a/x\""), json.find("\"c/x\""));
  EXPECT_LT(json.find("\"\": {"), json.find("\"a/os/faults\""));
}

TEST(MetricsRegistryTest, SnapshotSeriesTracksCumulativeValues) {
  MetricsRegistry reg;
  uint64_t v = 0;
  reg.RegisterValue("v", [&] { return v; });
  v = 10;
  reg.SnapshotEpoch(Milliseconds(1));
  v = 25;
  reg.SnapshotEpoch(Milliseconds(2));
  ASSERT_EQ(reg.snapshots().size(), 2u);
  EXPECT_EQ(reg.snapshots()[0].time, Milliseconds(1));
  ASSERT_EQ(reg.snapshots()[0].values.size(), 1u);
  EXPECT_EQ(reg.snapshots()[0].values[0], 10u);
  ASSERT_EQ(reg.snapshots()[1].values.size(), 1u);
  EXPECT_EQ(reg.snapshots()[1].values[0], 25u);
  reg.ClearSnapshots();
  EXPECT_TRUE(reg.snapshots().empty());
}

// A metric registered between two snapshots did not exist at the first: it
// reads 0 there, through snapshots() and in the exported series.
TEST(MetricsRegistryTest, MetricRegisteredAfterASnapshotReadsZeroBeforeIt) {
  MetricsRegistry reg;
  uint64_t a = 5;
  uint64_t b = 9;
  reg.RegisterValue("a", [&] { return a; });
  reg.SnapshotEpoch(Milliseconds(1));
  reg.RegisterValue("b", [&] { return b; });
  reg.SnapshotEpoch(Milliseconds(2));
  reg.SnapshotEpoch(Milliseconds(3));
  const auto snaps = reg.snapshots();
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_EQ(snaps[0].values.size(), 1u);
  EXPECT_EQ(snaps[0].values[1], 0u);
  EXPECT_EQ(snaps[1].values.size(), 2u);
  EXPECT_EQ(snaps[1].values[0], 5u);
  EXPECT_EQ(snaps[1].values[1], 9u);
  EXPECT_EQ(snaps[2].values[1], 9u);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"a\": [5, 5, 5]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"b\": [0, 9, 9]"), std::string::npos) << json;
}

using Triple = std::array<uint64_t, 3>;

template <size_t F>
uint64_t TripleField(const void* ctx) {
  return (*static_cast<const Triple*>(ctx))[F];
}

// The change-only series against a dense shadow the test keeps itself:
// seeded registries of one-off metrics and three-field families registered
// between snapshots, values that repeat, change, return to 0 and reach
// UINT64_MAX, and a ClearSnapshots() midway. Every snapshot value read
// through snapshots() and every exported series value must match.
TEST(MetricsRegistryTest, ChangeOnlySeriesMatchesDenseShadow) {
  static const MetricSchema kSchema({
      MetricField("a", &TripleField<0>),
      MetricField("b", &TripleField<1>),
      MetricField("c", &TripleField<2>),
  });
  for (uint64_t seed = 1; seed <= 24; seed++) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    MetricsRegistry reg;
    std::deque<uint64_t> singles;     // one-off metrics' values
    std::deque<Triple> triples;       // families' values
    std::vector<uint64_t*> by_index;  // metric index -> its value
    struct Row {
      SimTime time;
      std::vector<uint64_t> values;
    };
    std::vector<Row> shadow;
    auto random_value = [&]() -> uint64_t {
      switch (rng.NextBelow(4)) {
        case 0:
          return 0;
        case 1:
          return UINT64_MAX;
        case 2:
          return rng.Next();
        default:
          return rng.NextBelow(1000);
      }
    };
    auto register_some = [&] {
      const uint64_t n = rng.NextBelow(9);
      for (uint64_t k = 0; k < n; k++) {
        const std::string id = std::to_string(by_index.size());
        if (rng.NextBelow(3) == 0) {
          Triple& t = triples.emplace_back();
          for (uint64_t& v : t) {
            v = random_value();
            by_index.push_back(&v);
          }
          ASSERT_TRUE(reg.RegisterFamily("f" + id + "/", kSchema, &t));
        } else {
          uint64_t* cell = &singles.emplace_back(random_value());
          ASSERT_TRUE(reg.RegisterValue("m" + id, [cell] { return *cell; }));
          by_index.push_back(cell);
        }
      }
    };
    auto check = [&] {
      const auto snaps = reg.snapshots();
      ASSERT_EQ(snaps.size(), shadow.size());
      size_t k = 0;
      for (const auto& snap : snaps) {
        const Row& row = shadow[k];
        ASSERT_EQ(snap.time, row.time);
        ASSERT_EQ(snap.values.size(), row.values.size()) << "snapshot " << k;
        for (size_t i = 0; i < row.values.size(); i++) {
          ASSERT_EQ(snap.values[i], row.values[i])
              << "snapshot " << k << " metric " << reg.names()[i];
        }
        k++;
      }
      // The exported times and series, spelled out from the shadow.
      std::vector<size_t> order(reg.size());
      std::iota(order.begin(), order.end(), size_t{0});
      const std::vector<std::string>& names = reg.names();
      std::sort(order.begin(), order.end(),
                [&](size_t x, size_t y) { return names[x] < names[y]; });
      std::string want = "    \"times_ns\": [";
      for (size_t r = 0; r < shadow.size(); r++) {
        want += (r > 0 ? ", " : "") + std::to_string(shadow[r].time);
      }
      want += "],\n    \"series\": {\n";
      for (size_t oi = 0; oi < order.size(); oi++) {
        const size_t i = order[oi];
        want += "      \"" + names[i] + "\": [";
        for (size_t r = 0; r < shadow.size(); r++) {
          const std::vector<uint64_t>& v = shadow[r].values;
          want += (r > 0 ? ", " : "") + std::to_string(i < v.size() ? v[i] : 0);
        }
        want += oi + 1 < order.size() ? "],\n" : "]\n";
      }
      want += "    }\n  }\n}\n";
      const std::string json = reg.ToJson();
      const size_t at = json.find("    \"times_ns\"");
      ASSERT_NE(at, std::string::npos);
      EXPECT_EQ(json.substr(at), want);
    };
    constexpr int kSteps = 40;
    for (int step = 0; step < kSteps; step++) {
      if (step == kSteps / 2) {
        check();
        reg.ClearSnapshots();
        shadow.clear();
      }
      register_some();
      for (uint64_t* cell : by_index) {
        if (rng.NextBelow(2) == 0) {  // else the value repeats
          *cell = random_value();
        }
      }
      const SimTime now = Milliseconds(step + 1);
      reg.SnapshotEpoch(now);
      Row row{now, {}};
      for (const uint64_t* cell : by_index) {
        row.values.push_back(*cell);
      }
      shadow.push_back(std::move(row));
    }
    ASSERT_GT(reg.size(), 128u) << "the bitmaps should span several words";
    check();
  }
}

TEST(MetricsRegistryTest, GetterIndirectionSurvivesObjectReplacement) {
  // The cluster registers getters, not pointers, precisely so a rebooted
  // node's fresh stats object is picked up. Model that here.
  MetricsRegistry reg;
  auto stats = std::make_unique<Counter>();
  Counter* live = stats.get();
  Counter** slot = &live;
  reg.RegisterCounter("svc", [slot] { return *slot; });
  stats->Add(1);
  EXPECT_EQ(reg.Value("svc"), 1u);
  auto fresh = std::make_unique<Counter>();  // "reboot"
  live = fresh.get();
  EXPECT_EQ(reg.Value("svc"), 0u);
}

TEST(MetricsRegistryTest, ToJsonContainsSchemaMetricsAndSnapshots) {
  MetricsRegistry reg;
  Counter counter;
  counter.Add(64);
  StatAccumulator stat;
  stat.Add(1.5);
  stat.Add(2.5);
  LatencyHistogram hist;
  hist.Record(Microseconds(100));
  reg.RegisterCounter("net/total", [&] { return &counter; });
  reg.RegisterStat("os/access_us", [&] { return &stat; });
  reg.RegisterLatency("os/fault_ns", [&] { return &hist; });
  reg.SnapshotEpoch(Milliseconds(3));

  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"schema\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"net/total\""), std::string::npos);
  EXPECT_NE(json.find("\"os/access_us\""), std::string::npos);
  EXPECT_NE(json.find("\"mean\""), std::string::npos);
  EXPECT_NE(json.find("\"p95_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"times_ns\""), std::string::npos);
  // Balanced braces: cheap structural sanity (CI parses it with Python).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(MetricsRegistryTest, ToJsonIsByteIdenticalAndRegistrationOrderFree) {
  // The JSON is sorted by metric name at serialization time, so two
  // registries holding the same metrics must serialize byte-identically no
  // matter the order their subsystems registered in (CI diffs these files).
  Counter counter;
  counter.Add(64);
  uint64_t v = 9;
  auto build = [&](bool reversed) {
    auto reg = std::make_unique<MetricsRegistry>();
    if (reversed) {
      reg->RegisterValue("z/value", [&] { return v; });
      reg->RegisterCounter("a/counter", [&] { return &counter; });
    } else {
      reg->RegisterCounter("a/counter", [&] { return &counter; });
      reg->RegisterValue("z/value", [&] { return v; });
    }
    reg->SnapshotEpoch(Milliseconds(5));
    return reg;
  };
  const std::string fwd = build(false)->ToJson();
  const std::string rev = build(true)->ToJson();
  EXPECT_EQ(fwd, rev) << "registration order leaked into the JSON";
  EXPECT_EQ(fwd, build(false)->ToJson()) << "repeat serialization differed";
  // Sorted order: "a/counter" text appears before "z/value" in both the
  // metrics map and the snapshot series.
  EXPECT_LT(fwd.find("\"a/counter\""), fwd.find("\"z/value\""));
}

TEST(MetricsRegistryTest, ToJsonEscapesHostileMetricNames) {
  // Names come from code today, but the serializer must not depend on that:
  // quotes, backslashes, and control characters all have to survive.
  MetricsRegistry reg;
  uint64_t v = 1;
  ASSERT_TRUE(reg.RegisterValue("weird\"name\\with\tctl", [&] { return v; }));
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"weird\\\"name\\\\with\\u0009ctl\""),
            std::string::npos)
      << json;
  // The raw (unescaped) byte sequence must not appear anywhere.
  EXPECT_EQ(json.find("weird\"name"), std::string::npos);
  EXPECT_EQ(json.find('\t'), std::string::npos);
}

// The export's exact bytes, recorded from the printf-based serializer this
// one replaced: every integer width up to UINT64_MAX, %.6g doubles in fixed
// and exponent form with a negative min, an escaped name, and three
// snapshots. Any drift here moves every downstream digest of the export.
TEST(MetricsRegistryTest, ToJsonBytesArePinned) {
  MetricsRegistry reg;
  uint64_t value = 7;
  Counter counter;
  StatAccumulator stat;
  LatencyHistogram hist;
  reg.RegisterValue("q\"uote\\back\x01slash", [&] { return value; });
  reg.RegisterCounter("net/total", [&] { return &counter; });
  reg.RegisterStat("os/access_us", [&] { return &stat; });
  reg.RegisterLatency("os/fault_ns", [&] { return &hist; });
  reg.SnapshotEpoch(0);
  value = 1234567890123;
  counter.events = 3;
  counter.bytes = UINT64_MAX;
  stat.Add(-0.25);
  stat.Add(1234567.0);
  stat.Add(0.0001);
  hist.Record(900);
  hist.Record(Microseconds(250));
  reg.SnapshotEpoch(Milliseconds(40));
  value = UINT64_MAX;
  hist.Record(Seconds(3));
  reg.SnapshotEpoch(Seconds(86400));

  constexpr const char* kExpected = R"json({
  "schema": 1,
  "metrics": {
    "net/total": {"type": "counter", "events": 3, "bytes": 18446744073709551615},
    "os/access_us": {"type": "stat", "count": 3, "mean": 411522, "stddev": 712778, "min": -0.25, "max": 1.23457e+06},
    "os/fault_ns": {"type": "latency", "count": 3, "p50_ns": 245760, "p95_ns": 2952790016, "p99_ns": 2952790016},
    "q\"uote\\back\u0001slash": {"type": "value", "value": 18446744073709551615}
  },
  "snapshots": {
    "times_ns": [0, 40000000, 86400000000000],
    "series": {
      "net/total": [0, 3, 3],
      "os/access_us": [0, 3, 3],
      "os/fault_ns": [0, 2, 3],
      "q\"uote\\back\u0001slash": [7, 1234567890123, 18446744073709551615]
    }
  }
}
)json";
  EXPECT_EQ(reg.ToJson(), kExpected);
}

}  // namespace
}  // namespace gms
