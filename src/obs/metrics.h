// Metrics registry: one named, hierarchical catalogue of every counter,
// Welford accumulator, and latency histogram in a cluster, replacing ad-hoc
// walks over per-subsystem stats structs.
//
// Subsystems keep owning their hot-path stat fields (a registry indirection
// on the fault path would not be free); what the registry owns is the *name
// space* and the *time series*.
//
//   * names are slash-hierarchical: "node0/os/faults", "net/total/bytes";
//   * metrics come in families: a constant MetricSchema lists a subsystem's
//     fields once (name suffix, kind, captureless reader), and registering
//     a family is one append of (prefix, schema, context pointer) however
//     many fields the schema has. Readers go through the context on every
//     read, so a rebooted node's fresh GmsAgent shows through;
//   * a one-off metric registered by name is a one-field family whose
//     context is its stored getter;
//   * SnapshotEpoch() appends the current cumulative value of every metric
//     to a time series (the per-epoch plumbing behind Figures 8/11-style
//     curves), cheap enough to run every simulated epoch;
//   * the series stores only what changed. The registry keeps one dense row,
//     the last snapshot's values; each snapshot stores its time, the number
//     of metrics it covers, a bitmap of the metrics whose primary value
//     differs from the previous snapshot's (the first snapshot, and the
//     first after ClearSnapshots(), differ from zero), one uint32 rank
//     prefix per 64-bit bitmap word, and the changed values packed in index
//     order. A snapshot of M metrics of which C changed costs M/8 + M/16 +
//     8C bytes, not 8M: at 1000 nodes, an idle epoch's 39001 metrics take
//     about 40 KB instead of 312 KB. A metric registered after a snapshot
//     reads 0 in it;
//   * ToJson() exports current values, derived statistics (mean/stddev,
//     latency quantiles), and the full snapshot series. It walks each
//     metric's series forward and carries the last value, so each exported
//     value costs O(1); random access through snapshots() walks back to the
//     metric's last change, O(snapshots) at worst.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/common/slot_index.h"
#include "src/common/stats.h"
#include "src/common/time.h"

namespace gms {

// Log-bucketed latency histogram over nanosecond values. Quarter-octave
// buckets (4 per power of two) above 4 ns: a bucket's half-width is at most
// 12.5% of its lower bound, so Quantile() is within 12.5% of the true
// sample quantile. The bucket array is sized on the first Record or Merge:
// a histogram that never records (an idle node's fault and getpage
// latencies) costs 32 bytes, not 1.3 KB, and reads as all zeros. After
// that, recording is one array increment — allocation-free and cheap
// enough for every access/fault/getpage completion.
class LatencyHistogram {
 public:
  static constexpr int kNumBuckets = 160;  // covers [0, ~1100 s)

  void Record(SimTime latency_ns) {
    if (buckets_.empty()) {
      buckets_.resize(kNumBuckets);
    }
    buckets_[static_cast<size_t>(
        BucketIndex(latency_ns < 0 ? 0 : static_cast<uint64_t>(latency_ns)))]++;
    count_++;
  }
  void Merge(const LatencyHistogram& other);
  // Zeroes the counts; sized bucket storage is kept for reuse.
  void Reset();

  uint64_t count() const { return count_; }
  uint64_t bucket(int i) const {
    return buckets_.empty() ? 0 : buckets_[static_cast<size_t>(i)];
  }

  // Inclusive lower bound of bucket i's value range (upper bound is the next
  // bucket's lower bound; the last bucket is open-ended).
  static uint64_t BucketLowerBound(int i);
  static int BucketIndex(uint64_t value_ns);

  // The q-th sample quantile (q in [0, 1]), estimated as the midpoint of the
  // bucket holding that rank; within 12.5% of the exact sample quantile.
  // Returns 0 on an empty histogram.
  SimTime Quantile(double q) const;

 private:
  uint64_t count_ = 0;
  std::vector<uint64_t> buckets_;  // empty until the first sample
};

enum class MetricKind { kValue, kCounter, kStat, kLatency };

// One field of a MetricSchema: the name suffix it adds to a family's
// prefix, its kind, and a captureless reader over the family's context
// pointer. The reader matching `kind` is the one set.
struct MetricField {
  using ValueReader = uint64_t (*)(const void* ctx);
  using CounterReader = const Counter* (*)(const void* ctx);
  using StatReader = const StatAccumulator* (*)(const void* ctx);
  using LatencyReader = const LatencyHistogram* (*)(const void* ctx);

  MetricField(std::string_view s, ValueReader r)
      : suffix(s), kind(MetricKind::kValue), value(r) {}
  MetricField(std::string_view s, CounterReader r)
      : suffix(s), kind(MetricKind::kCounter), counter(r) {}
  MetricField(std::string_view s, StatReader r)
      : suffix(s), kind(MetricKind::kStat), stat(r) {}
  MetricField(std::string_view s, LatencyReader r)
      : suffix(s), kind(MetricKind::kLatency), latency(r) {}

  // Primary value (what SnapshotEpoch records): kValue -> the value,
  // kCounter -> events, kStat/kLatency -> sample count.
  uint64_t Primary(const void* ctx) const;
  // A field is looked up by its suffix.
  bool operator==(std::string_view s) const { return suffix == s; }

  std::string_view suffix;  // the schema's storage must outlive it
  MetricKind kind;
  union {
    ValueReader value;
    CounterReader counter;
    StatReader stat;
    LatencyReader latency;
  };
};

// Hash of a name piece; a field hashes as its suffix, so a schema's index
// can be keyed by its fields.
struct MetricNameHash {
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
  size_t operator()(const MetricField& f) const { return (*this)(f.suffix); }
};

// A constant table of fields shared by every family registered with it
// (one per subsystem shape, built once per process). Suffixes are unique.
class MetricSchema {
 public:
  explicit MetricSchema(std::vector<MetricField> fields);
  MetricSchema(const MetricSchema&) = delete;
  MetricSchema& operator=(const MetricSchema&) = delete;

  size_t size() const { return fields_.size(); }
  const std::vector<MetricField>& fields() const { return fields_; }
  // The field whose suffix is `suffix`, or fields().size() if none.
  size_t Find(std::string_view suffix) const {
    const uint32_t i = index_.Find(suffix, fields_.data());
    return i == index_.kNotFound ? fields_.size() : i;
  }
  // Field numbers in ascending suffix order (the export's order).
  const std::vector<uint32_t>& sorted() const { return sorted_; }
  // Bytes the escaped suffixes add to the export's names, summed.
  size_t json_suffix_bytes() const { return json_suffix_bytes_; }

 private:
  std::vector<MetricField> fields_;
  SlotIndex<MetricField, MetricNameHash> index_;  // by suffix
  std::vector<uint32_t> sorted_;
  size_t json_suffix_bytes_ = 0;
};

// Metric indices are dense and in registration order; a family's fields
// take consecutive indices in schema order.
class MetricsRegistry {
 public:
  using Kind = MetricKind;

  using ValueFn = std::function<uint64_t()>;
  using CounterFn = std::function<const Counter*()>;
  using StatFn = std::function<const StatAccumulator*()>;
  using LatencyFn = std::function<const LatencyHistogram*()>;

  // Registers one metric per schema field, named prefix + suffix and read
  // through `ctx`. `schema` must outlive the registry. The prefix is one
  // path component ("node7/": its only '/' is its last character) that no
  // other family has; a family that would spell a name already registered
  // is rejected whole (false). O(1) at any registry and schema size, or
  // O(fields) once one-off metrics exist, to check it spells none of them.
  bool RegisterFamily(std::string prefix, const MetricSchema& schema,
                      const void* ctx);

  // One-off registration by full name (duplicates are rejected with false).
  bool RegisterValue(std::string name, ValueFn fn);
  bool RegisterCounter(std::string name, CounterFn fn);
  bool RegisterStat(std::string name, StatFn fn);
  bool RegisterLatency(std::string name, LatencyFn fn);

  size_t size() const { return owner_.size(); }
  // Every metric's name by index. Registration stores no per-metric name:
  // the column is spelled out on the first call after a registration.
  const std::vector<std::string>& names() const;

  // Current primary value of a metric: kValue -> the value, kCounter ->
  // events, kStat/kLatency -> sample count. nullopt for unknown names.
  std::optional<uint64_t> Value(std::string_view name) const;
  std::optional<Kind> KindOf(std::string_view name) const;

  // Index-based access for sampling paths that read many metrics on a timer
  // (health monitoring): resolve the name once at bind time, then read by
  // index with no string compare per sample. Indices are stable for the
  // registry's lifetime (registration only appends). IndexOf costs at most
  // two family lookups (the first path component, the whole name), each
  // followed by a schema lookup on a hit.
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

  // Read-only view of the series. Element k has .time and .values;
  // .values has size() (the metrics registered at snapshot k) and
  // operator[], which walks back to the metric's last change and reads 0
  // for a metric registered after snapshot k. Views point into the
  // registry: they are valid while it lives and until ClearSnapshots().
  class SnapshotValues {
   public:
    size_t size() const { return reg_->deltas_[k_].width; }
    uint64_t operator[](size_t i) const { return reg_->SnapshotValue(k_, i); }

   private:
    friend class MetricsRegistry;
    SnapshotValues(const MetricsRegistry* reg, size_t k) : reg_(reg), k_(k) {}
    const MetricsRegistry* reg_;
    size_t k_;
  };
  struct Snapshot {
    SimTime time;
    SnapshotValues values;
  };
  class SnapshotList {
   public:
    class Iterator {
     public:
      Snapshot operator*() const { return SnapshotList(reg_)[k_]; }
      Iterator& operator++() {
        k_++;
        return *this;
      }
      bool operator==(const Iterator& o) const { return k_ == o.k_; }

     private:
      friend class SnapshotList;
      Iterator(const MetricsRegistry* reg, size_t k) : reg_(reg), k_(k) {}
      const MetricsRegistry* reg_;
      size_t k_;
    };

    size_t size() const { return reg_->deltas_.size(); }
    bool empty() const { return size() == 0; }
    Snapshot operator[](size_t k) const {
      return Snapshot{reg_->deltas_[k].time, SnapshotValues(reg_, k)};
    }
    Snapshot back() const { return (*this)[size() - 1]; }
    Iterator begin() const { return Iterator(reg_, 0); }
    Iterator end() const { return Iterator(reg_, size()); }

   private:
    friend class MetricsRegistry;
    explicit SnapshotList(const MetricsRegistry* reg) : reg_(reg) {}
    const MetricsRegistry* reg_;
  };
  SnapshotList snapshots() const { return SnapshotList(this); }
  void ClearSnapshots() {
    deltas_.clear();
    last_.clear();
  }

  // JSON export: {"schema":1, "metrics":{...}, "snapshots":{...}}. Metric
  // entries carry kind-specific fields (counter bytes, Welford mean/stddev,
  // latency quantiles).
  std::string ToJson() const;

 private:
  struct Family {
    std::string prefix;
    const MetricSchema* schema;
    const void* ctx;
    uint32_t first;  // index of the schema's field 0

    const MetricField& field(size_t index) const {
      return schema->fields()[index - first];
    }
    bool operator==(std::string_view p) const { return prefix == p; }
  };
  struct PrefixHash {
    size_t operator()(std::string_view p) const { return MetricNameHash{}(p); }
    size_t operator()(const Family& f) const { return (*this)(f.prefix); }
  };
  using Getter = std::variant<ValueFn, CounterFn, StatFn, LatencyFn>;
  // One stored snapshot: the metrics whose value changed since the previous
  // snapshot, and their new values.
  struct SnapshotDelta {
    SimTime time = 0;
    size_t width = 0;               // metrics registered at the snapshot
    std::vector<uint64_t> changed;  // bit i set: metric i changed
    std::vector<uint32_t> rank;     // set bits in the words before word w
    std::vector<uint64_t> values;   // the changed values, in index order

    // If metric i changed at this snapshot, stores its new value in *v.
    bool Read(size_t i, uint64_t* v) const;
  };

  template <typename Fn>
  bool RegisterGetter(std::string name, Fn fn);
  void AddFamily(std::string prefix, const MetricSchema& schema,
                 const void* ctx);
  const Family& FamilyOf(size_t index) const {
    return families_[owner_[index]];
  }
  std::string NameAt(size_t index) const;
  std::vector<uint32_t> ExportOrder() const;
  uint64_t SnapshotValue(size_t k, size_t i) const;

  std::vector<Family> families_;
  SlotIndex<Family, PrefixHash> prefix_index_;  // over families_' prefixes
  std::vector<uint32_t> owner_;  // metric index -> family
  std::deque<Getter> getters_;  // one-off metrics' contexts (stable)
  mutable std::vector<std::string> names_;  // built on request
  std::vector<SnapshotDelta> deltas_;
  std::vector<uint64_t> last_;  // values at the last snapshot
};

}  // namespace gms

#endif  // SRC_OBS_METRICS_H_
