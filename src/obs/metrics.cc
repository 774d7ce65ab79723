#include "src/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <utility>

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

bool MetricsRegistry::RegisterValue(std::string name, ValueFn fn) {
  Metric m;
  m.kind = Kind::kValue;
  m.value = std::move(fn);
  return RegisterNamed(std::move(name), std::move(m));
}

bool MetricsRegistry::RegisterCounter(std::string name, CounterFn fn) {
  Metric m;
  m.kind = Kind::kCounter;
  m.counter = std::move(fn);
  return RegisterNamed(std::move(name), std::move(m));
}

bool MetricsRegistry::RegisterStat(std::string name, StatFn fn) {
  Metric m;
  m.kind = Kind::kStat;
  m.stat = std::move(fn);
  return RegisterNamed(std::move(name), std::move(m));
}

bool MetricsRegistry::RegisterLatency(std::string name, LatencyFn fn) {
  Metric m;
  m.kind = Kind::kLatency;
  m.latency = std::move(fn);
  return RegisterNamed(std::move(name), std::move(m));
}

const MetricsRegistry::Metric* MetricsRegistry::Find(
    std::string_view name) const {
  const size_t i = IndexOf(name);
  return i == kInvalidIndex ? nullptr : &metrics_[i];
}

uint64_t MetricsRegistry::PrimaryValue(const Metric& m) const {
  switch (m.kind) {
    case Kind::kValue:
      return m.value();
    case Kind::kCounter:
      return m.counter()->events;
    case Kind::kStat:
      return m.stat()->count();
    case Kind::kLatency:
      return m.latency()->count();
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
  return m->kind;
}

size_t MetricsRegistry::IndexOf(std::string_view name) const {
  const uint32_t i = index_.Find(name, names_.data());
  return i == index_.kNotFound ? kInvalidIndex : i;
}

uint64_t MetricsRegistry::ValueAt(size_t index) const {
  return index < metrics_.size() ? PrimaryValue(metrics_[index]) : 0;
}

const LatencyHistogram* MetricsRegistry::LatencyAt(size_t index) const {
  if (index >= metrics_.size() || metrics_[index].kind != Kind::kLatency) {
    return nullptr;
  }
  return metrics_[index].latency();
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

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) {
    out->append(buf, static_cast<size_t>(n) < sizeof(buf)
                         ? static_cast<size_t>(n)
                         : sizeof(buf) - 1);
  }
}

// Proper JSON string escaping: quotes, backslashes, and control characters
// round-trip losslessly instead of being squashed to '_'.
void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (c == '"') {
      *out += "\\\"";
    } else if (c == '\\') {
      *out += "\\\\";
    } else if (u < 0x20) {
      AppendF(out, "\\u%04x", u);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

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
  std::string out;
  out.reserve(4096 + metrics_.size() * 128);
  out += "{\n  \"schema\": 1,\n  \"metrics\": {\n";
  for (size_t oi = 0; oi < order.size(); oi++) {
    const size_t i = order[oi];
    const Metric& m = metrics_[i];
    out += "    ";
    AppendJsonString(&out, names_[i]);
    out += ": ";
    switch (m.kind) {
      case Kind::kValue:
        AppendF(&out, "{\"type\": \"value\", \"value\": %" PRIu64 "}",
                m.value());
        break;
      case Kind::kCounter: {
        const Counter* c = m.counter();
        AppendF(&out,
                "{\"type\": \"counter\", \"events\": %" PRIu64
                ", \"bytes\": %" PRIu64 "}",
                c->events, c->bytes);
        break;
      }
      case Kind::kStat: {
        const StatAccumulator* s = m.stat();
        AppendF(&out,
                "{\"type\": \"stat\", \"count\": %" PRIu64
                ", \"mean\": %.6g, \"stddev\": %.6g, \"min\": %.6g, "
                "\"max\": %.6g}",
                s->count(), s->mean(), s->stddev(), s->min(), s->max());
        break;
      }
      case Kind::kLatency: {
        const LatencyHistogram* h = m.latency();
        AppendF(&out,
                "{\"type\": \"latency\", \"count\": %" PRIu64
                ", \"p50_ns\": %lld, \"p95_ns\": %lld, \"p99_ns\": %lld}",
                h->count(), static_cast<long long>(h->Quantile(0.5)),
                static_cast<long long>(h->Quantile(0.95)),
                static_cast<long long>(h->Quantile(0.99)));
        break;
      }
    }
    out += oi + 1 < order.size() ? ",\n" : "\n";
  }
  out += "  },\n  \"snapshots\": {\n    \"times_ns\": [";
  for (size_t i = 0; i < snapshots_.size(); i++) {
    AppendF(&out, "%s%lld", i ? ", " : "",
            static_cast<long long>(snapshots_[i].time));
  }
  out += "],\n    \"series\": {\n";
  for (size_t oi = 0; oi < order.size(); oi++) {
    const size_t i = order[oi];
    out += "      ";
    AppendJsonString(&out, names_[i]);
    out += ": [";
    for (size_t s = 0; s < snapshots_.size(); s++) {
      AppendF(&out, "%s%" PRIu64, s ? ", " : "", snapshots_[s].values[i]);
    }
    out += "]";
    out += oi + 1 < order.size() ? ",\n" : "\n";
  }
  out += "    }\n  }\n}\n";
  return out;
}

}  // namespace gms
