#include "src/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <charconv>
#include <cmath>
#include <numeric>
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
  if (other.buckets_.empty()) {
    return;  // nothing recorded: count_ is 0 too
  }
  if (buckets_.empty()) {
    buckets_.resize(kNumBuckets);
  }
  for (size_t i = 0; i < kNumBuckets; i++) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

void LatencyHistogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
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
  // count_ > 0, so the buckets are sized.
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
// MetricField / MetricSchema
// ---------------------------------------------------------------------------

uint64_t MetricField::Primary(const void* ctx) const {
  switch (kind) {
    case MetricKind::kValue:
      return value(ctx);
    case MetricKind::kCounter:
      return counter(ctx)->events;
    case MetricKind::kStat:
      return stat(ctx)->count();
    case MetricKind::kLatency:
      return latency(ctx)->count();
  }
  return 0;
}

MetricSchema::MetricSchema(std::vector<MetricField> fields)
    : fields_(std::move(fields)) {
  index_.Reserve(fields_.size(), fields_.data());
  for (uint32_t i = 0; i < fields_.size(); i++) {
    assert(index_.Find(fields_[i].suffix, fields_.data()) ==
               index_.kNotFound &&
           "duplicate suffix in a metric schema");
    index_.Insert(i, fields_.data());
    json_suffix_bytes_ += JsonStringSize(fields_[i].suffix) - 2;
  }
  sorted_.resize(fields_.size());
  std::iota(sorted_.begin(), sorted_.end(), 0u);
  std::sort(sorted_.begin(), sorted_.end(), [this](uint32_t a, uint32_t b) {
    return fields_[a].suffix < fields_[b].suffix;
  });
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

namespace {

// The schema of one-off metrics whose getter is an `Fn`: one field with an
// empty suffix (the family prefix is the whole name) whose reader calls the
// getter the context points at.
template <typename Fn>
const MetricSchema& GetterSchema() {
  static const MetricSchema schema({MetricField(
      "", [](const void* fn) { return (*static_cast<const Fn*>(fn))(); })});
  return schema;
}

}  // namespace

bool MetricsRegistry::RegisterFamily(std::string prefix,
                                     const MetricSchema& schema,
                                     const void* ctx) {
  if (prefix.find('/') + 1 != prefix.size() ||
      prefix_index_.Find(prefix, families_.data()) !=
          prefix_index_.kNotFound) {
    return false;
  }
  if (!getters_.empty()) {
    // Two families cannot spell the same name, but a one-off metric may
    // already spell one of this family's names.
    std::string name = prefix;
    for (const MetricField& f : schema.fields()) {
      name.resize(prefix.size());
      name += f.suffix;
      if (IndexOf(name) != kInvalidIndex) {
        return false;
      }
    }
  }
  AddFamily(std::move(prefix), schema, ctx);
  return true;
}

template <typename Fn>
bool MetricsRegistry::RegisterGetter(std::string name, Fn fn) {
  if (IndexOf(name) != kInvalidIndex ||
      prefix_index_.Find(name, families_.data()) != prefix_index_.kNotFound) {
    return false;
  }
  getters_.emplace_back(std::in_place_type<Fn>, std::move(fn));
  AddFamily(std::move(name), GetterSchema<Fn>(),
            std::get_if<Fn>(&getters_.back()));
  return true;
}

void MetricsRegistry::AddFamily(std::string prefix, const MetricSchema& schema,
                                const void* ctx) {
  const auto family = static_cast<uint32_t>(families_.size());
  families_.push_back(Family{std::move(prefix), &schema, ctx,
                             static_cast<uint32_t>(owner_.size())});
  prefix_index_.Insert(family, families_.data());
  owner_.resize(owner_.size() + schema.size(), family);
}

bool MetricsRegistry::RegisterValue(std::string name, ValueFn fn) {
  return RegisterGetter(std::move(name), std::move(fn));
}

bool MetricsRegistry::RegisterCounter(std::string name, CounterFn fn) {
  return RegisterGetter(std::move(name), std::move(fn));
}

bool MetricsRegistry::RegisterStat(std::string name, StatFn fn) {
  return RegisterGetter(std::move(name), std::move(fn));
}

bool MetricsRegistry::RegisterLatency(std::string name, LatencyFn fn) {
  return RegisterGetter(std::move(name), std::move(fn));
}

std::string MetricsRegistry::NameAt(size_t index) const {
  const Family& f = FamilyOf(index);
  std::string name = f.prefix;
  name += f.field(index).suffix;
  return name;
}

const std::vector<std::string>& MetricsRegistry::names() const {
  if (names_.size() < size()) {
    names_.reserve(size());
    for (size_t i = names_.size(); i < size(); i++) {
      names_.push_back(NameAt(i));
    }
  }
  return names_;
}

std::optional<uint64_t> MetricsRegistry::Value(std::string_view name) const {
  const size_t i = IndexOf(name);
  if (i == kInvalidIndex) {
    return std::nullopt;
  }
  return ValueAt(i);
}

std::optional<MetricsRegistry::Kind> MetricsRegistry::KindOf(
    std::string_view name) const {
  const size_t i = IndexOf(name);
  if (i == kInvalidIndex) {
    return std::nullopt;
  }
  return FamilyOf(i).field(i).kind;
}

size_t MetricsRegistry::IndexOf(std::string_view name) const {
  // A family's prefix is the name up to its first '/'; a one-off metric's
  // is the whole name. Registration guarantees at most one of them matches.
  const size_t cut = name.find('/');
  const size_t first = cut == std::string_view::npos ? name.size() : cut + 1;
  for (const size_t len : {first, name.size()}) {
    const uint32_t fam =
        prefix_index_.Find(name.substr(0, len), families_.data());
    if (fam == prefix_index_.kNotFound) {
      continue;
    }
    const Family& f = families_[fam];
    const size_t field = f.schema->Find(name.substr(len));
    if (field < f.schema->size()) {
      return f.first + field;
    }
  }
  return kInvalidIndex;
}

uint64_t MetricsRegistry::ValueAt(size_t index) const {
  if (index >= size()) {
    return 0;
  }
  const Family& f = FamilyOf(index);
  return f.field(index).Primary(f.ctx);
}

const LatencyHistogram* MetricsRegistry::LatencyAt(size_t index) const {
  if (index >= size()) {
    return nullptr;
  }
  const Family& f = FamilyOf(index);
  const MetricField& field = f.field(index);
  return field.kind == Kind::kLatency ? field.latency(f.ctx) : nullptr;
}

void MetricsRegistry::SnapshotEpoch(SimTime now) {
  // One pass reads every metric, marks the changed ones and updates the
  // dense row; a second packs the changed values into an exact-size array.
  // A metric registered since the last snapshot enters the row as 0.
  SnapshotDelta d;
  d.time = now;
  d.width = size();
  last_.resize(d.width);
  const size_t words = (d.width + 63) / 64;
  d.changed.assign(words, 0);
  size_t i = 0;
  for (const Family& f : families_) {
    for (const MetricField& field : f.schema->fields()) {
      const uint64_t v = field.Primary(f.ctx);
      if (v != last_[i]) {
        last_[i] = v;
        d.changed[i / 64] |= uint64_t{1} << (i % 64);
      }
      i++;
    }
  }
  d.rank.resize(words);
  uint32_t total = 0;
  for (size_t w = 0; w < words; w++) {
    d.rank[w] = total;
    total += static_cast<uint32_t>(std::popcount(d.changed[w]));
  }
  d.values.reserve(total);
  for (size_t w = 0; w < words; w++) {
    for (uint64_t bits = d.changed[w]; bits != 0; bits &= bits - 1) {
      d.values.push_back(
          last_[w * 64 + static_cast<size_t>(std::countr_zero(bits))]);
    }
  }
  deltas_.push_back(std::move(d));
}

bool MetricsRegistry::SnapshotDelta::Read(size_t i, uint64_t* v) const {
  if (i >= width) {
    return false;
  }
  const uint64_t word = changed[i / 64];
  const uint64_t bit = uint64_t{1} << (i % 64);
  if ((word & bit) == 0) {
    return false;
  }
  const auto below = static_cast<size_t>(std::popcount(word & (bit - 1)));
  *v = values[rank[i / 64] + below];
  return true;
}

uint64_t MetricsRegistry::SnapshotValue(size_t k, size_t i) const {
  // Widths never shrink, so once i is past one, it is past all earlier.
  uint64_t v = 0;
  for (size_t j = k + 1; j-- > 0;) {
    if (i >= deltas_[j].width || deltas_[j].Read(i, &v)) {
      break;
    }
  }
  return v;
}

std::vector<uint32_t> MetricsRegistry::ExportOrder() const {
  // Names sort by family prefix, then by suffix within the family, unless
  // one prefix begins another (family "net/" and one-off "net/a"): then
  // the two families' names may interleave, so sort the spelled-out names.
  // Sorted prefixes need only be compared with their neighbours: a prefix
  // of one string is a prefix of every string sorted between the two.
  std::vector<uint32_t> fams(families_.size());
  std::iota(fams.begin(), fams.end(), 0u);
  std::sort(fams.begin(), fams.end(), [this](uint32_t a, uint32_t b) {
    return families_[a].prefix < families_[b].prefix;
  });
  std::vector<uint32_t> order;
  order.reserve(size());
  for (size_t k = 1; k < fams.size(); k++) {
    if (families_[fams[k]].prefix.starts_with(families_[fams[k - 1]].prefix)) {
      const std::vector<std::string>& n = names();
      order.resize(size());
      std::iota(order.begin(), order.end(), 0u);
      std::sort(order.begin(), order.end(),
                [&n](uint32_t a, uint32_t b) { return n[a] < n[b]; });
      return order;
    }
  }
  for (const uint32_t fam : fams) {
    const Family& f = families_[fam];
    for (const uint32_t field : f.schema->sorted()) {
      order.push_back(f.first + field);
    }
  }
  return order;
}

namespace {

// Upper bounds on the bytes one exported entry adds beyond its quoted name:
// the fixed JSON text plus the longest form of each number in it (a %.6g
// double is at most 13 bytes, "-1.23457e+308").
constexpr size_t kMetricEntryMaxBytes = 200;
constexpr size_t kSeriesValueMaxBytes = 2 + kMaxJsonIntChars;  // ", " + int

size_t DecimalDigits(uint64_t v) {
  size_t digits = 1;
  for (; v >= 10; v /= 10) {
    digits++;
  }
  return digits;
}

}  // namespace

std::string MetricsRegistry::ToJson() const {
  // Keys are emitted in sorted name order (not registration order) so the
  // export is diff-friendly and byte-identical across runs that register the
  // same metrics in different orders.
  const std::vector<uint32_t> order = ExportOrder();
  // A metric none of snapshots 1..n-1 changed holds its snapshot-0 value
  // (0 if it was registered later) through the whole series: OR-ing their
  // change bitmaps once finds every such constant row, which is then
  // formatted once per distinct value and copied. On an idle cluster that
  // is most of the export.
  const size_t num_snaps = deltas_.size();
  std::vector<uint64_t> moved((size() + 63) / 64, 0);
  for (size_t s = 1; s < num_snaps; s++) {
    const std::vector<uint64_t>& changed = deltas_[s].changed;
    for (size_t w = 0; w < changed.size(); w++) {
      moved[w] |= changed[w];
    }
  }
  auto constant = [&moved](size_t i) {
    return (moved[i / 64] & (uint64_t{1} << (i % 64))) == 0;
  };
  auto first_value = [this, num_snaps](size_t i) {
    uint64_t v = 0;
    if (num_snaps > 0) {
      deltas_[0].Read(i, &v);
    }
    return v;
  };
  // One reservation bounds the whole export, so the string never regrows.
  // Every name appears twice (metrics map and series), quoted and escaped.
  // A constant row's size is exact; any other row's is bounded per value.
  size_t bound = 256 + num_snaps * kSeriesValueMaxBytes;
  for (const Family& f : families_) {
    const MetricSchema& schema = *f.schema;
    const size_t name_bytes =
        schema.size() * JsonStringSize(f.prefix) + schema.json_suffix_bytes();
    bound += 2 * name_bytes + schema.size() * kMetricEntryMaxBytes;
  }
  for (size_t i = 0; num_snaps > 0 && i < size(); i++) {
    bound += constant(i) ? num_snaps * (2 + DecimalDigits(first_value(i))) - 2
                         : num_snaps * kSeriesValueMaxBytes;
  }
  std::string out;
  out.reserve(bound);
  auto append_name = [&](size_t i) {
    const Family& f = FamilyOf(i);
    out.push_back('"');
    AppendJsonChars(&out, f.prefix);
    AppendJsonChars(&out, f.field(i).suffix);
    out.push_back('"');
  };
  out += "{\n  \"schema\": 1,\n  \"metrics\": {\n";
  for (size_t oi = 0; oi < order.size(); oi++) {
    const size_t i = order[oi];
    const void* ctx = FamilyOf(i).ctx;
    const MetricField& f = FamilyOf(i).field(i);
    out += "    ";
    append_name(i);
    out += ": ";
    switch (f.kind) {
      case Kind::kValue:
        out += "{\"type\": \"value\", \"value\": ";
        AppendInt(&out, f.value(ctx));
        out += "}";
        break;
      case Kind::kCounter: {
        const Counter* c = f.counter(ctx);
        out += "{\"type\": \"counter\", \"events\": ";
        AppendInt(&out, c->events);
        out += ", \"bytes\": ";
        AppendInt(&out, c->bytes);
        out += "}";
        break;
      }
      case Kind::kStat: {
        const StatAccumulator* s = f.stat(ctx);
        out += "{\"type\": \"stat\", \"count\": ";
        AppendInt(&out, s->count());
        AppendF(&out,
                ", \"mean\": %.6g, \"stddev\": %.6g, \"min\": %.6g, "
                "\"max\": %.6g}",
                s->mean(), s->stddev(), s->min(), s->max());
        break;
      }
      case Kind::kLatency: {
        const LatencyHistogram* h = f.latency(ctx);
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
    AppendInt(&out, deltas_[s].time);
  }
  out += "],\n    \"series\": {\n";
  // Each series row is formatted with raw pointer writes and appended whole:
  // per-value std::string appends would cost more than the digits. A row
  // walks the metric's snapshots forward, carrying its value between
  // changes; before the metric existed it reads 0. A constant row is
  // copied from the last one built for its value.
  std::vector<char> row(num_snaps * kSeriesValueMaxBytes);
  char* const row_end = row.data() + row.size();
  std::string constant_row;  // constant_value's series; empty: none built
  uint64_t constant_value = 0;
  for (size_t oi = 0; oi < order.size(); oi++) {
    const size_t i = order[oi];
    out += "      ";
    append_name(i);
    out += ": [";
    if (constant(i)) {
      const uint64_t v = first_value(i);
      if (constant_row.empty() || v != constant_value) {
        constant_value = v;
        constant_row.clear();
        for (size_t s = 0; s < num_snaps; s++) {
          if (s > 0) {
            constant_row += ", ";
          }
          AppendInt(&constant_row, v);
        }
      }
      out += constant_row;
    } else {
      char* p = row.data();
      uint64_t v = 0;
      for (size_t s = 0; s < num_snaps; s++) {
        if (s > 0) {
          *p++ = ',';
          *p++ = ' ';
        }
        deltas_[s].Read(i, &v);
        p = std::to_chars(p, row_end, v).ptr;
      }
      out.append(row.data(), static_cast<size_t>(p - row.data()));
    }
    out += "]";
    out += oi + 1 < order.size() ? ",\n" : "\n";
  }
  out += "    }\n  }\n}\n";
  return out;
}

}  // namespace gms
