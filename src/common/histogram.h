// Histograms.
//
// LogHistogram is the wire format for the epoch age summaries (section 3.2):
// each node reports the distribution of its page ages in log2-spaced buckets,
// the initiator merges them and derives MinAge and the per-node weights. A
// fixed bucket count keeps the summary size constant, which is what makes the
// Table 5 network traffic linear in the number of nodes.
#ifndef SRC_COMMON_HISTOGRAM_H_
#define SRC_COMMON_HISTOGRAM_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace gms {

class LogHistogram {
 public:
  // Quarter-octave buckets (4 sub-buckets per power of two) above 4x the
  // unit: a bucket's lower bound is within 25% of any value it holds, which
  // bounds the error of the MinAge threshold the epoch algorithm derives
  // from merged histograms. With a 1024 ns unit, 192 buckets span ~1 us to
  // far beyond any simulated age.
  static constexpr int kNumBuckets = 192;
  static constexpr uint64_t kUnit = 1024;

  void Add(uint64_t value, uint64_t count = 1);
  // Adds directly into bucket `i` (no value-to-bucket mapping). Lets a
  // sparse (bucket, count) representation — the epoch partial-aggregation
  // wire format — round-trip losslessly: re-adding a histogram's nonzero
  // buckets reproduces it bit for bit.
  void AddBucket(int i, uint64_t count);
  void Merge(const LogHistogram& other);
  void Reset();

  uint64_t total() const { return total_; }
  uint64_t bucket(int i) const { return buckets_[static_cast<size_t>(i)]; }

  // Inclusive lower bound of bucket i's value range.
  static uint64_t BucketLowerBound(int i);
  // The bucket Add(value) counts into.
  static int BucketIndex(uint64_t value);

  // Number of recorded values that are >= threshold, counting a bucket as
  // entirely above the threshold when its lower bound is >= threshold.
  // (Conservative: never overstates the old-page population.)
  uint64_t CountAtOrAbove(uint64_t threshold) const;

  // Largest threshold t (a bucket lower bound) such that CountAtOrAbove(t)
  // >= want. Returns 0 if even counting everything falls short — the paper's
  // "MinAge = 0" regime in which all evictions go to disk. If want == 0,
  // returns UINT64_MAX (nothing qualifies for global placement... every page
  // is younger than the threshold, i.e. everything is forwarded to disk
  // never; callers treat this as "no replacement budget").
  uint64_t ThresholdForCount(uint64_t want) const;

  // Serialized size in bytes (fixed): used for network accounting.
  static constexpr uint64_t kWireSize = kNumBuckets * sizeof(uint32_t);

 private:
  std::array<uint64_t, kNumBuckets> buckets_ = {};
  uint64_t total_ = 0;
};

}  // namespace gms

#endif  // SRC_COMMON_HISTOGRAM_H_
