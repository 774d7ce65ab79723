#include "src/sim/event_queue.h"

#include <bit>
#include <cassert>

namespace gms {

namespace {

constexpr size_t kMinBuckets = 16;
constexpr uint32_t kDefaultWidthShift = 10;  // 1024 ns; adapts at resize
constexpr uint64_t kDefaultAvgGap = 341;     // ~width/3

}  // namespace

CalendarQueue::CalendarQueue()
    : buckets_(kMinBuckets),
      width_shift_(kDefaultWidthShift),
      cur_top_(static_cast<SimTime>(1) << kDefaultWidthShift),
      avg_gap_fp_(kDefaultAvgGap * 16) {}

void CalendarQueue::Locate() {
  assert(size_ > 0);
  const size_t n = buckets_.size();
  size_t i = cur_bucket_;
  SimTime top = cur_top_;
  for (size_t scanned = 0; scanned < n; ++scanned) {
    const Bucket& b = buckets_[i];
    if (!b.empty()) {
      const size_t m = MinIndex(b);
      if (b[m].time < top) {
        cur_bucket_ = i;
        min_idx_ = m;
        cur_top_ = top;
        located_ = true;
        return;
      }
    }
    i = (i + 1) & (n - 1);
    top += width();
  }
  // Sparse: no event within one full rotation. Direct search over bucket
  // minima, then jump the window to the winner's year.
  direct_searches_++;
  size_t best_b = n;
  size_t best_i = 0;
  for (size_t k = 0; k < n; ++k) {
    const Bucket& b = buckets_[k];
    if (b.empty()) {
      continue;
    }
    const size_t m = MinIndex(b);
    if (best_b == n || Earlier(b[m], buckets_[best_b][best_i])) {
      best_b = k;
      best_i = m;
    }
  }
  cur_bucket_ = best_b;
  min_idx_ = best_i;
  cur_top_ = TopFor(buckets_[best_b][best_i].time);
  located_ = true;
}

void CalendarQueue::MaybeShrink() {
  if (ops_since_resize_ < buckets_.size()) {
    return;
  }
  // Width drifted: the event spacing the current width was derived from no
  // longer matches reality (e.g. the width was fixed at cold start before
  // the gap average had converged). Rebuild at the same bucket count so the
  // window scan stays O(1). The ops gate above bounds this to one O(n)
  // rebuild per n operations; the 4x hysteresis band prevents oscillation.
  const uint32_t ideal =
      static_cast<uint32_t>(std::bit_width(3 * avg_gap())) - 1;
  if (ideal + 2 <= width_shift_ || ideal >= width_shift_ + 2) {
    Resize(buckets_.size());
    return;
  }
  // Shrink only when the population has been *durably* small: a queue that
  // merely cycles (fill, drain, refill) keeps pushing its high-water mark
  // back up and never thrashes resizes. The periodic reset lets a queue
  // whose spike has genuinely passed become eligible again.
  if (buckets_.size() > kMinBuckets && size_ < buckets_.size() / 8 &&
      ops_since_resize_ >= buckets_.size() * 4) {
    if (peak_since_resize_ < buckets_.size() / 4) {
      Resize(buckets_.size() / 2);
    } else if (ops_since_resize_ >= buckets_.size() * 8) {
      ops_since_resize_ = 0;
      peak_since_resize_ = size_;
    }
  }
}

void CalendarQueue::Resize(size_t new_buckets) {
  scratch_.clear();
  scratch_.reserve(size_);
  for (Bucket& b : buckets_) {
    scratch_.insert(scratch_.end(), b.begin(), b.end());
    b.clear();
  }

  // Width = largest power of two <= 3x the average inter-event gap,
  // targeting a couple of same-year events per bucket.
  const uint64_t target = 3 * avg_gap();
  width_shift_ = static_cast<uint32_t>(std::bit_width(target)) - 1;

  buckets_.resize(new_buckets);
  size_t min_b = 0;
  size_t min_i = 0;
  bool have_min = false;
  for (const Key& k : scratch_) {
    const size_t i = BucketFor(k.time);
    Bucket& b = buckets_[i];
    if (!have_min || Earlier(k, buckets_[min_b][min_i])) {
      min_b = i;
      min_i = b.size();
      have_min = true;
    }
    b.push_back(k);
  }
  scratch_.clear();
  if (have_min) {
    cur_bucket_ = min_b;
    min_idx_ = min_i;
    cur_top_ = TopFor(buckets_[min_b][min_i].time);
    located_ = true;
  } else {
    cur_bucket_ = 0;
    cur_top_ = width();
    located_ = false;
  }
  ops_since_resize_ = 0;
  peak_since_resize_ = size_;
}

}  // namespace gms
