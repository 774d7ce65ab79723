// Metrics registry: one named, hierarchical catalogue of every counter,
// Welford accumulator, and latency histogram in a cluster, replacing ad-hoc
// walks over per-subsystem stats structs.
//
// Subsystems keep owning their hot-path stat fields (a registry indirection
// on the fault path would not be free); what the registry owns is the *name
// space* and the *time series*. Registration stores a getter (not a raw
// pointer) so a metric survives its subsystem being rebuilt — a rebooted
// node's fresh GmsAgent is picked up transparently.
//
//   * names are slash-hierarchical: "node0/os/faults", "net/total/bytes";
//   * SnapshotEpoch() appends the current cumulative value of every metric
//     to a time series (the per-epoch plumbing behind Figures 8/11-style
//     curves), cheap enough to run every simulated epoch;
//   * ToJson() exports current values, derived statistics (mean/stddev,
//     latency quantiles), and the full snapshot series.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "src/common/slot_index.h"
#include "src/common/stats.h"
#include "src/common/time.h"

namespace gms {

// Log-bucketed latency histogram over nanosecond values. Quarter-octave
// buckets (4 per power of two) above 4 ns: a bucket's half-width is at most
// 12.5% of its lower bound, so Quantile() is within 12.5% of the true
// sample quantile. Recording is one array increment — allocation-free and
// cheap enough for every access/fault/getpage completion.
class LatencyHistogram {
 public:
  static constexpr int kNumBuckets = 160;  // covers [0, ~1100 s)

  void Record(SimTime latency_ns) {
    buckets_[static_cast<size_t>(
        BucketIndex(latency_ns < 0 ? 0 : static_cast<uint64_t>(latency_ns)))]++;
    count_++;
  }
  void Merge(const LatencyHistogram& other);
  void Reset();

  uint64_t count() const { return count_; }
  uint64_t bucket(int i) const { return buckets_[static_cast<size_t>(i)]; }

  // Inclusive lower bound of bucket i's value range (upper bound is the next
  // bucket's lower bound; the last bucket is open-ended).
  static uint64_t BucketLowerBound(int i);
  static int BucketIndex(uint64_t value_ns);

  // The q-th sample quantile (q in [0, 1]), estimated as the midpoint of the
  // bucket holding that rank; within 12.5% of the exact sample quantile.
  // Returns 0 on an empty histogram.
  SimTime Quantile(double q) const;

 private:
  uint64_t buckets_[kNumBuckets] = {};
  uint64_t count_ = 0;
};

// One registered metric: a name plus a getter for the live object. The
// primary value (what SnapshotEpoch records) is the metric's monotonic
// event count.
class MetricsRegistry {
 public:
  enum class Kind { kValue, kCounter, kStat, kLatency };

  using ValueFn = std::function<uint64_t()>;
  using CounterFn = std::function<const Counter*()>;
  using StatFn = std::function<const StatAccumulator*()>;
  using LatencyFn = std::function<const LatencyHistogram*()>;

  // Registration (setup time; duplicate names are rejected with false).
  // Registration and every by-name lookup cost O(1) at any registry size.
  bool RegisterValue(std::string name, ValueFn fn);
  bool RegisterCounter(std::string name, CounterFn fn);
  bool RegisterStat(std::string name, StatFn fn);
  bool RegisterLatency(std::string name, LatencyFn fn);
  // Sizes the registry for `n` metrics in all, so registering up to that
  // many regrows no column and never rehashes the name index.
  void Reserve(size_t n);

  size_t size() const { return metrics_.size(); }
  const std::vector<std::string>& names() const { return names_; }

  // Current primary value of a metric: kValue -> the value, kCounter ->
  // events, kStat/kLatency -> sample count. nullopt for unknown names.
  std::optional<uint64_t> Value(std::string_view name) const;
  std::optional<Kind> KindOf(std::string_view name) const;

  // Index-based access for sampling paths that read many metrics on a timer
  // (health monitoring): resolve the name once at bind time, then read by
  // index with no string compare per sample. Indices are stable for the
  // registry's lifetime (registration only appends).
  static constexpr size_t kInvalidIndex = ~static_cast<size_t>(0);
  size_t IndexOf(std::string_view name) const;  // kInvalidIndex if unknown
  uint64_t ValueAt(size_t index) const;         // primary value
  // The live histogram behind a kLatency metric; nullptr for other kinds.
  const LatencyHistogram* LatencyAt(size_t index) const;

  // Cumulative snapshot of every metric's primary value, in registration
  // order. Called once per epoch (or any fixed cadence); consecutive
  // snapshots differ by exactly the events of that interval, so deltas
  // tile the run with no loss or double counting.
  void SnapshotEpoch(SimTime now);

  struct Snapshot {
    SimTime time = 0;
    std::vector<uint64_t> values;  // registration order
  };
  const std::vector<Snapshot>& snapshots() const { return snapshots_; }
  void ClearSnapshots() { snapshots_.clear(); }

  // JSON export: {"schema":1, "metrics":{...}, "snapshots":{...}}. Metric
  // entries carry kind-specific fields (counter bytes, Welford mean/stddev,
  // latency quantiles).
  std::string ToJson() const;

 private:
  // One metric's getter; its name is names_ at the same index, and its Kind
  // is the alternative's index (one std::function, not one per kind).
  using Metric = std::variant<ValueFn, CounterFn, StatFn, LatencyFn>;
  static_assert(std::is_same_v<std::variant_alternative_t<
                                   static_cast<size_t>(Kind::kValue), Metric>,
                               ValueFn> &&
                std::is_same_v<std::variant_alternative_t<
                                   static_cast<size_t>(Kind::kCounter), Metric>,
                               CounterFn> &&
                std::is_same_v<std::variant_alternative_t<
                                   static_cast<size_t>(Kind::kStat), Metric>,
                               StatFn> &&
                std::is_same_v<std::variant_alternative_t<
                                   static_cast<size_t>(Kind::kLatency), Metric>,
                               LatencyFn>,
                "Kind must list the Metric alternatives in order");
  static_assert(sizeof(Metric) <= 48, "one getter per metric");

  bool RegisterNamed(std::string name, Metric metric);
  uint64_t PrimaryValue(const Metric& m) const;
  const Metric* Find(std::string_view name) const;

  std::vector<Metric> metrics_;
  std::vector<std::string> names_;  // parallel to metrics_
  SlotIndex<std::string, std::hash<std::string_view>> index_;  // over names_
  std::vector<Snapshot> snapshots_;
};

}  // namespace gms

#endif  // SRC_OBS_METRICS_H_
