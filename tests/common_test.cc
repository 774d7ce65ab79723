// Unit tests for src/common: UIDs, RNG, statistics, histograms, alias
// sampling, the open-addressed slot index, and table rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/alias.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/slot_index.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/time.h"
#include "src/common/uid.h"

namespace gms {
namespace {

// --- time ---

TEST(TimeTest, UnitsCompose) {
  EXPECT_EQ(Microseconds(1), Nanoseconds(1000));
  EXPECT_EQ(Milliseconds(1), Microseconds(1000));
  EXPECT_EQ(Seconds(1), Milliseconds(1000));
  EXPECT_DOUBLE_EQ(ToMicroseconds(Microseconds(5)), 5.0);
  EXPECT_DOUBLE_EQ(ToMilliseconds(Microseconds(1500)), 1.5);
  EXPECT_DOUBLE_EQ(ToSeconds(Milliseconds(250)), 0.25);
}

TEST(TimeTest, FormatPicksUnit) {
  EXPECT_EQ(FormatTime(Nanoseconds(100)), "100ns");
  EXPECT_EQ(FormatTime(Microseconds(12)), "12.00us");
  EXPECT_EQ(FormatTime(Milliseconds(3)), "3.00ms");
  EXPECT_EQ(FormatTime(Seconds(2)), "2.000s");
}

// --- uid ---

TEST(UidTest, PacksAndUnpacksAllFields) {
  const Uid uid = MakeUid(0x0a000007, 3, 0x123456789abcULL, 98765);
  EXPECT_EQ(uid.ip(), 0x0a000007u);
  EXPECT_EQ(uid.partition(), 3);
  EXPECT_EQ(uid.inode(), 0x123456789abcULL);
  EXPECT_EQ(uid.page_offset(), 98765u);
}

TEST(UidTest, InvalidUidIsDistinct) {
  EXPECT_FALSE(kInvalidUid.valid());
  EXPECT_TRUE(MakeUid(1, 0, 0, 0).valid());
  EXPECT_TRUE(MakeUid(0, 0, 0, 1).valid());
}

TEST(UidTest, EqualityAndOrdering) {
  const Uid a = MakeUid(1, 0, 10, 0);
  const Uid b = MakeUid(1, 0, 10, 1);
  EXPECT_EQ(a, a);
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
}

TEST(UidTest, HashSpreadsNeighboringOffsets) {
  // Consecutive pages of one file must land in different GCD buckets.
  std::map<uint64_t, int> buckets;
  for (uint32_t off = 0; off < 1024; off++) {
    buckets[HashUid(MakeUid(5, 1, 42, off)) % 128]++;
  }
  EXPECT_GT(buckets.size(), 100u);  // close to all 128 buckets populated
}

TEST(UidTest, ToStringIsReadable) {
  const Uid uid = MakeUid(0x0a000001, 1, 7, 9);
  EXPECT_EQ(uid.ToString(), "uid{ip=10.0.0.1 part=1 ino=7 off=9}");
}

// --- rng ---

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; i++) {
    if (a.Next() == b.Next()) {
      same++;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; i++) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversRange) {
  Rng rng(7);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; i++) {
    seen[rng.NextBelow(10)]++;
  }
  for (int count : seen) {
    EXPECT_GT(count, 800);
    EXPECT_LT(count, 1200);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; i++) {
    const int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; i++) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; i++) {
    sum += rng.NextExponential(250.0);
  }
  EXPECT_NEAR(sum / n, 250.0, 10.0);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(99);
  Rng child = a.Fork();
  // The child must not replay the parent's stream.
  Rng reference(99);
  reference.Next();  // Fork consumed one draw
  EXPECT_NE(child.Next(), reference.Next());
}

TEST(ZipfTest, RankZeroIsHottest) {
  Rng rng(5);
  ZipfSampler zipf(1000, 0.8);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 50000; i++) {
    counts[zipf.Sample(rng)]++;
  }
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[100]);
  EXPECT_GT(counts[0] + counts[1] + counts[2], 50000 / 10);
}

TEST(ZipfTest, CoversTail) {
  Rng rng(6);
  ZipfSampler zipf(100, 0.5);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; i++) {
    const uint64_t r = zipf.Sample(rng);
    ASSERT_LT(r, 100u);
    counts[r]++;
  }
  int zero_buckets = 0;
  for (int c : counts) {
    zero_buckets += (c == 0);
  }
  EXPECT_LT(zero_buckets, 5);
}

// --- stats ---

TEST(StatsTest, MeanMinMax) {
  StatAccumulator acc;
  acc.Add(1);
  acc.Add(2);
  acc.Add(3);
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.0);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 3.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 1.0);
}

TEST(StatsTest, EmptyAccumulatorIsZero) {
  StatAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
}

TEST(StatsTest, MergeMatchesCombinedStream) {
  StatAccumulator a, b, combined;
  Rng rng(17);
  for (int i = 0; i < 500; i++) {
    const double x = rng.NextDouble() * 10;
    a.Add(x);
    combined.Add(x);
  }
  for (int i = 0; i < 300; i++) {
    const double x = rng.NextDouble() * 3 + 5;
    b.Add(x);
    combined.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), combined.variance(), 1e-9);
}

TEST(StatsTest, CounterAccumulates) {
  Counter c;
  c.Add(100);
  c.Add(50);
  EXPECT_EQ(c.events, 2u);
  EXPECT_EQ(c.bytes, 150u);
  Counter d;
  d.Add(1);
  c.Merge(d);
  EXPECT_EQ(c.events, 3u);
  EXPECT_EQ(c.bytes, 151u);
}

// --- histogram ---

TEST(LogHistogramTest, CountsTotal) {
  LogHistogram h;
  h.Add(10);
  h.Add(1000000);
  h.Add(12345, 3);
  EXPECT_EQ(h.total(), 5u);
}

TEST(LogHistogramTest, CountAtOrAboveIsConservative) {
  LogHistogram h;
  h.Add(1);         // bucket 0
  h.Add(100'000);   // well above kUnit
  // A threshold above bucket 0's range must not count the small value.
  EXPECT_EQ(h.CountAtOrAbove(LogHistogram::kUnit), 1u);
  EXPECT_EQ(h.CountAtOrAbove(0), 2u);
}

TEST(LogHistogramTest, ThresholdSelectsOldest) {
  LogHistogram h;
  h.Add(2'000, 10);        // young
  h.Add(2'000'000, 5);     // old
  h.Add(2'000'000'000, 2); // very old
  const uint64_t t = h.ThresholdForCount(2);
  EXPECT_GT(t, 2'000'000u);
  EXPECT_GE(h.CountAtOrAbove(t), 2u);
  // Asking for everything returns a low threshold.
  EXPECT_LE(h.ThresholdForCount(17), 2'000u);
}

TEST(LogHistogramTest, ThresholdForZeroIsInfinite) {
  LogHistogram h;
  h.Add(5'000);
  EXPECT_EQ(h.ThresholdForCount(0), UINT64_MAX);
}

TEST(LogHistogramTest, ThresholdWhenShortOfSupply) {
  LogHistogram h;
  h.Add(5'000'000, 3);
  EXPECT_EQ(h.ThresholdForCount(100), 0u);
}

TEST(LogHistogramTest, MergeAddsBucketwise) {
  LogHistogram a, b;
  a.Add(5'000, 2);
  b.Add(5'000, 3);
  b.Add(50'000'000, 1);
  a.Merge(b);
  EXPECT_EQ(a.total(), 6u);
  EXPECT_EQ(a.CountAtOrAbove(10'000'000), 1u);
}

TEST(LogHistogramTest, ResetClears) {
  LogHistogram h;
  h.Add(123456, 7);
  h.Reset();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.CountAtOrAbove(0), 0u);
}

// --- alias sampler ---

TEST(AliasSamplerTest, EmptyWeightsGiveEmptySampler) {
  EXPECT_TRUE(AliasSampler().empty());
  EXPECT_TRUE(AliasSampler(std::vector<double>{}).empty());
  EXPECT_TRUE(AliasSampler(std::vector<double>{0, 0, 0}).empty());
}

TEST(AliasSamplerTest, SingleWeightAlwaysSampled) {
  AliasSampler s(std::vector<double>{0, 5, 0});
  Rng rng(1);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(s.Sample(rng), 1u);
  }
}

TEST(AliasSamplerTest, ProportionalSampling) {
  // w = {1, 2, 3, 4}: expect frequencies ~ {10%, 20%, 30%, 40%}.
  AliasSampler s(std::vector<double>{1, 2, 3, 4});
  Rng rng(2);
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; i++) {
    counts[s.Sample(rng)]++;
  }
  EXPECT_NEAR(counts[0] / double(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / double(n), 0.2, 0.015);
  EXPECT_NEAR(counts[2] / double(n), 0.3, 0.015);
  EXPECT_NEAR(counts[3] / double(n), 0.4, 0.015);
}

// --- table ---

// --- slot index ---

// Random insert/erase/find churn over a fixed key column, checked against
// std::unordered_map. A small table and a narrow key range force long probe
// chains, wrap-around and backward shifts across the table end.
TEST(SlotIndexTest, MatchesUnorderedMapUnderChurn) {
  constexpr uint32_t kRows = 24;
  std::vector<Uid> keys(kRows, kInvalidUid);
  std::vector<uint32_t> free_rows;
  for (uint32_t r = kRows; r-- > 0;) {
    free_rows.push_back(r);
  }
  SlotIndex<Uid> index;
  index.Reserve(kRows, keys.data());
  std::unordered_map<Uid, uint32_t> model;
  Rng rng(5);
  for (int step = 0; step < 50000; step++) {
    const Uid uid = MakeUid(1, 0, 3, static_cast<uint32_t>(rng.NextBelow(40)));
    auto it = model.find(uid);
    ASSERT_EQ(index.Find(uid, keys.data()),
              it == model.end() ? index.kNotFound : it->second);
    if (it != model.end()) {
      index.Erase(it->second, keys.data());
      keys[it->second] = kInvalidUid;
      free_rows.push_back(it->second);
      model.erase(it);
    } else if (!free_rows.empty()) {
      const uint32_t row = free_rows.back();
      free_rows.pop_back();
      keys[row] = uid;
      index.Insert(row, keys.data());
      model.emplace(uid, row);
    }
    ASSERT_EQ(index.size(), model.size());
  }
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  for (const auto& [uid, row] : model) {
    EXPECT_EQ(index.Find(uid, keys.data()), index.kNotFound);
  }
}

// An index that starts empty grows with its column (the registry's use),
// and probes a string column with string_views.
TEST(SlotIndexTest, GrowsWithAStringColumn) {
  std::vector<std::string> names;
  SlotIndex<std::string, std::hash<std::string_view>> index;
  EXPECT_EQ(index.Find(std::string_view("absent"), names.data()),
            index.kNotFound);
  for (uint32_t i = 0; i < 5000; i++) {
    names.push_back("node" + std::to_string(i) + "/os/faults");
    index.Insert(i, names.data());
  }
  EXPECT_EQ(index.size(), 5000u);
  for (uint32_t i = 0; i < 5000; i += 7) {
    const std::string probe = "node" + std::to_string(i) + "/os/faults";
    EXPECT_EQ(index.Find(std::string_view(probe), names.data()), i);
  }
  EXPECT_EQ(index.Find(std::string_view("node5000/os/faults"), names.data()),
            index.kNotFound);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"Operation", "Value"});
  t.AddRow({"short", "1"});
  t.AddNumericRow("longer-label", {3.14159}, 2);
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Operation"), std::string::npos);
  EXPECT_NE(out.find("longer-label"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

}  // namespace
}  // namespace gms
