#include "src/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <utility>

#include "src/obs/json_append.h"

namespace gms {

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

// Same quarter-octave layout as LogHistogram (src/common/histogram.h) with a
// 1 ns unit:
//   idx 0..3       : [0,1), [1,2), [2,3), [3,4)
//   idx 4 + 4e + s : [(4+s) * 2^e, (5+s) * 2^e)
int LatencyHistogram::BucketIndex(uint64_t value_ns) {
  if (value_ns < 4) {
    return static_cast<int>(value_ns);
  }
  const int e = std::bit_width(value_ns) - 3;  // value in [4*2^e, 8*2^e)
  const int sub = static_cast<int>((value_ns >> e) & 3);
  const int idx = 4 + 4 * e + sub;
  return idx >= kNumBuckets ? kNumBuckets - 1 : idx;
}

uint64_t LatencyHistogram::BucketLowerBound(int i) {
  if (i <= 0) {
    return 0;
  }
  if (i < 4) {
    return static_cast<uint64_t>(i);
  }
  const int e = (i - 4) / 4;
  const uint64_t sub = static_cast<uint64_t>((i - 4) % 4);
  return (4 + sub) << e;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (int i = 0; i < kNumBuckets; i++) {
    buckets_[static_cast<size_t>(i)] += other.buckets_[static_cast<size_t>(i)];
  }
  count_ += other.count_;
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) {
    b = 0;
  }
  count_ = 0;
}

SimTime LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  if (q < 0) {
    q = 0;
  }
  if (q > 1) {
    q = 1;
  }
  // Rank of the q-th sample (1-based), nearest-rank definition.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  if (rank == 0) {
    rank = 1;
  }
  uint64_t cum = 0;
  for (int i = 0; i < kNumBuckets; i++) {
    cum += buckets_[static_cast<size_t>(i)];
    if (cum >= rank) {
      const uint64_t lo = BucketLowerBound(i);
      const uint64_t hi =
          i + 1 < kNumBuckets ? BucketLowerBound(i + 1) : lo * 2;
      return static_cast<SimTime>(lo + (hi - lo) / 2);
    }
  }
  return static_cast<SimTime>(BucketLowerBound(kNumBuckets - 1));
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

bool MetricsRegistry::RegisterNamed(std::string name, Metric metric) {
  if (index_.Find(name, names_.data()) != index_.kNotFound) {
    return false;
  }
  names_.push_back(std::move(name));
  metrics_.push_back(std::move(metric));
  index_.Insert(static_cast<uint32_t>(names_.size() - 1), names_.data());
  return true;
}

void MetricsRegistry::Reserve(size_t n) {
  metrics_.reserve(n);
  names_.reserve(n);
  index_.Reserve(n, names_.data());
}

bool MetricsRegistry::RegisterValue(std::string name, ValueFn fn) {
  return RegisterNamed(std::move(name), Metric(std::move(fn)));
}

bool MetricsRegistry::RegisterCounter(std::string name, CounterFn fn) {
  return RegisterNamed(std::move(name), Metric(std::move(fn)));
}

bool MetricsRegistry::RegisterStat(std::string name, StatFn fn) {
  return RegisterNamed(std::move(name), Metric(std::move(fn)));
}

bool MetricsRegistry::RegisterLatency(std::string name, LatencyFn fn) {
  return RegisterNamed(std::move(name), Metric(std::move(fn)));
}

const MetricsRegistry::Metric* MetricsRegistry::Find(
    std::string_view name) const {
  const size_t i = IndexOf(name);
  return i == kInvalidIndex ? nullptr : &metrics_[i];
}

uint64_t MetricsRegistry::PrimaryValue(const Metric& m) const {
  switch (static_cast<Kind>(m.index())) {
    case Kind::kValue:
      return (*std::get_if<ValueFn>(&m))();
    case Kind::kCounter:
      return (*std::get_if<CounterFn>(&m))()->events;
    case Kind::kStat:
      return (*std::get_if<StatFn>(&m))()->count();
    case Kind::kLatency:
      return (*std::get_if<LatencyFn>(&m))()->count();
  }
  return 0;
}

std::optional<uint64_t> MetricsRegistry::Value(std::string_view name) const {
  const Metric* m = Find(name);
  if (m == nullptr) {
    return std::nullopt;
  }
  return PrimaryValue(*m);
}

std::optional<MetricsRegistry::Kind> MetricsRegistry::KindOf(
    std::string_view name) const {
  const Metric* m = Find(name);
  if (m == nullptr) {
    return std::nullopt;
  }
  return static_cast<Kind>(m->index());
}

size_t MetricsRegistry::IndexOf(std::string_view name) const {
  const uint32_t i = index_.Find(name, names_.data());
  return i == index_.kNotFound ? kInvalidIndex : i;
}

uint64_t MetricsRegistry::ValueAt(size_t index) const {
  return index < metrics_.size() ? PrimaryValue(metrics_[index]) : 0;
}

const LatencyHistogram* MetricsRegistry::LatencyAt(size_t index) const {
  if (index >= metrics_.size()) {
    return nullptr;
  }
  const LatencyFn* fn = std::get_if<LatencyFn>(&metrics_[index]);
  return fn == nullptr ? nullptr : (*fn)();
}

void MetricsRegistry::SnapshotEpoch(SimTime now) {
  Snapshot snap;
  snap.time = now;
  snap.values.reserve(metrics_.size());
  for (const auto& m : metrics_) {
    snap.values.push_back(PrimaryValue(m));
  }
  snapshots_.push_back(std::move(snap));
}

namespace {

// Upper bounds on the bytes one exported entry adds beyond its quoted name:
// the fixed JSON text plus the longest form of each number in it (a %.6g
// double is at most 13 bytes, "-1.23457e+308").
constexpr size_t kMetricEntryMaxBytes = 200;
constexpr size_t kSeriesValueMaxBytes = 2 + kMaxJsonIntChars;  // ", " + int

}  // namespace

std::string MetricsRegistry::ToJson() const {
  // Keys are emitted in sorted name order (not registration order) so the
  // export is diff-friendly and byte-identical across runs that register the
  // same metrics in different orders.
  std::vector<size_t> order(metrics_.size());
  for (size_t i = 0; i < order.size(); i++) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return names_[a] < names_[b];
  });
  // One reservation bounds the whole export, so the string never regrows.
  const size_t num_snaps = snapshots_.size();
  size_t bound = 256 + num_snaps * kSeriesValueMaxBytes;
  for (const std::string& name : names_) {
    bound += 2 * JsonStringSize(name) + kMetricEntryMaxBytes +
             num_snaps * kSeriesValueMaxBytes;
  }
  std::string out;
  out.reserve(bound);
  out += "{\n  \"schema\": 1,\n  \"metrics\": {\n";
  for (size_t oi = 0; oi < order.size(); oi++) {
    const size_t i = order[oi];
    const Metric& m = metrics_[i];
    out += "    ";
    AppendJsonString(&out, names_[i]);
    out += ": ";
    switch (static_cast<Kind>(m.index())) {
      case Kind::kValue:
        out += "{\"type\": \"value\", \"value\": ";
        AppendInt(&out, (*std::get_if<ValueFn>(&m))());
        out += "}";
        break;
      case Kind::kCounter: {
        const Counter* c = (*std::get_if<CounterFn>(&m))();
        out += "{\"type\": \"counter\", \"events\": ";
        AppendInt(&out, c->events);
        out += ", \"bytes\": ";
        AppendInt(&out, c->bytes);
        out += "}";
        break;
      }
      case Kind::kStat: {
        const StatAccumulator* s = (*std::get_if<StatFn>(&m))();
        out += "{\"type\": \"stat\", \"count\": ";
        AppendInt(&out, s->count());
        AppendF(&out,
                ", \"mean\": %.6g, \"stddev\": %.6g, \"min\": %.6g, "
                "\"max\": %.6g}",
                s->mean(), s->stddev(), s->min(), s->max());
        break;
      }
      case Kind::kLatency: {
        const LatencyHistogram* h = (*std::get_if<LatencyFn>(&m))();
        out += "{\"type\": \"latency\", \"count\": ";
        AppendInt(&out, h->count());
        out += ", \"p50_ns\": ";
        AppendInt(&out, h->Quantile(0.5));
        out += ", \"p95_ns\": ";
        AppendInt(&out, h->Quantile(0.95));
        out += ", \"p99_ns\": ";
        AppendInt(&out, h->Quantile(0.99));
        out += "}";
        break;
      }
    }
    out += oi + 1 < order.size() ? ",\n" : "\n";
  }
  out += "  },\n  \"snapshots\": {\n    \"times_ns\": [";
  for (size_t s = 0; s < num_snaps; s++) {
    if (s > 0) {
      out += ", ";
    }
    AppendInt(&out, snapshots_[s].time);
  }
  out += "],\n    \"series\": {\n";
  // Each series row is formatted with raw pointer writes and appended whole:
  // per-value std::string appends would cost more than the digits.
  std::vector<char> row(num_snaps * kSeriesValueMaxBytes);
  char* const row_end = row.data() + row.size();
  for (size_t oi = 0; oi < order.size(); oi++) {
    const size_t i = order[oi];
    out += "      ";
    AppendJsonString(&out, names_[i]);
    out += ": [";
    char* p = row.data();
    for (size_t s = 0; s < num_snaps; s++) {
      if (s > 0) {
        *p++ = ',';
        *p++ = ' ';
      }
      p = std::to_chars(p, row_end, snapshots_[s].values[i]).ptr;
    }
    out.append(row.data(), static_cast<size_t>(p - row.data()));
    out += "]";
    out += oi + 1 < order.size() ? ",\n" : "\n";
  }
  out += "    }\n  }\n}\n";
  return out;
}

}  // namespace gms
