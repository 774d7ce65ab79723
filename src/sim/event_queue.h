// Calendar-queue event scheduler (R. Brown, CACM 1988).
//
// A calendar queue hashes each event by time into one of N "day" buckets
// (bucket = (time >> width_shift) mod N, N a power of two). With the bucket
// width tracking the spacing of distinct event times and N tracking the
// population, push and pop are O(1) amortized.
//
// Storage is split in two. A bucket holds 24-byte keys {time, stamp, slot};
// the closure, its timer id and its context sit in a flat slab of slots that
// a free list recycles. A closure is moved into the slab once at Push and out
// once at PopMin; the bucket hole-fill and Resize move keys, never closures
// (only the slab's own growth to a new peak relocates them). Buckets are
// small by construction, so each is unsorted: push appends, pop scans for
// the (time, stamp) minimum and swap-removes it. A heap per bucket was
// measured ~5x worse, and a keys-only 4-ary heap in place of the calendar
// ran the event_loop microbench at 0.25-0.43x.
//
// Ordering: events are totally ordered by (time, stamp). The stamp is an
// *intrinsic* key assigned by the simulator — the creating context's id in
// the high bits, a monotone counter below (src/sim/simulator.h) — so
// same-time events run in context order, and in creation order within one
// context.
//
// Pop scans buckets from the current position for an event inside the
// current "year" window; when a full rotation finds nothing (the queue is
// sparse relative to its span) it falls back to a direct search over bucket
// minima, counted by direct_searches(). The bucket width is a power of two
// (hashing is a shift, never a division) derived from an exponential moving
// average of the gaps between distinct pop times. Same-time events share a
// bucket at any width, so ties say nothing about it: counted as zero gaps,
// the epoch protocol's fan-out bursts (hundreds of events at one instant)
// dragged the width to a few ns, a year shrank to a few µs against timers
// 200-400 ms out, and one Locate in seven fell to the direct search. The
// bucket count doubles/halves with the population — redistribution is a
// single O(n) pass over keys, no sort. Between resizes, steady-state
// push/pop performs no allocation.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/time.h"
#include "src/sim/inline_fn.h"

namespace gms {

class CalendarQueue {
 public:
  CalendarQueue();

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  // Times Locate fell back to the direct search over every bucket: the
  // width or bucket count does not fit the pending events' spread.
  uint64_t direct_searches() const { return direct_searches_; }

  // Stores the closure in a slab slot (its one relocation on the way in)
  // and files its key in the bucket for time t.
  void Push(SimTime t, uint64_t stamp, uint64_t timer, uint32_t ctx,
            InlineFn&& fn) {
    if (size_ + 1 > buckets_.size() * 2) {
      Resize(buckets_.size() * 2);
    }
    // Scan invariant: nothing pending is earlier than the current window's
    // start. An event behind it (the clock was advanced past pending work by
    // RunUntil, or a sparse-search moved the window far ahead) rewinds the
    // window to its year.
    const size_t target = BucketFor(t);
    if (t < cur_top_ - width()) {
      cur_bucket_ = target;
      cur_top_ = TopFor(t);
      located_ = false;
    } else if (located_) {
      const Key& min = buckets_[cur_bucket_][min_idx_];
      if (t < min.time || (t == min.time && stamp < min.stamp)) {
        // A new event earlier than the located minimum but not behind the
        // window start lies inside the current window: the same bucket.
        if (target == cur_bucket_) {
          min_idx_ = buckets_[target].size();
        } else {
          located_ = false;
        }
      }
    }
    buckets_[target].push_back(
        Key{t, stamp, Store(timer, ctx, std::move(fn))});
    size_++;
    ops_since_resize_++;
    if (size_ > peak_since_resize_) {
      peak_since_resize_ = size_;
    }
  }

  // Time of the earliest event. Requires !empty(); caches the located bucket
  // so a following PopMin does not rescan.
  SimTime MinTime() {
    if (!located_) {
      Locate();
    }
    return buckets_[cur_bucket_][min_idx_].time;
  }

  // Header of a popped event (the closure travels separately).
  struct Popped {
    SimTime time;
    uint64_t timer;
    uint32_t ctx;
  };

  // Removes the earliest event by (time, stamp), moving its closure into
  // `fn`. Requires !empty().
  Popped PopMin(InlineFn& fn) {
    if (!located_) {
      Locate();
    }
    Bucket& b = buckets_[cur_bucket_];
    const Key k = b[min_idx_];
    b[min_idx_] = b.back();
    b.pop_back();
    Slot& s = slots_[k.slot];
    const Popped out{k.time, s.timer, s.ctx};
    fn = std::move(s.fn);
    s.next_free = free_head_;
    free_head_ = k.slot;
    size_--;
    ops_since_resize_++;
    UpdateGapEwma(out.time);
    // The scan invariant survives a pop, so if this bucket still has an
    // event inside the window it is the new global minimum — no rescan.
    located_ = false;
    if (!b.empty()) {
      const size_t m = MinIndex(b);
      if (b[m].time < cur_top_) {
        min_idx_ = m;
        located_ = true;
      }
    }
    MaybeShrink();
    return out;
  }

 private:
  // What a bucket holds: the order key and the event's slab slot.
  struct Key {
    SimTime time;
    uint64_t stamp;
    uint32_t slot;
  };
  static_assert(sizeof(Key) == 24);

  // What the slab holds: everything of an event but its order key.
  // next_free (in what would be padding) links free slots.
  struct Slot {
    uint64_t timer;  // 0 when not cancellable
    uint32_t ctx;    // owning context: restored as "current" at dispatch
    uint32_t next_free;
    InlineFn fn;
  };

  using Bucket = std::vector<Key>;

  static constexpr uint32_t kNoSlot = UINT32_MAX;

  static bool Earlier(const Key& a, const Key& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    return a.stamp < b.stamp;
  }

  // Index of the (time, stamp) minimum of a non-empty bucket.
  static size_t MinIndex(const Bucket& b) {
    size_t m = 0;
    for (size_t i = 1; i < b.size(); ++i) {
      if (Earlier(b[i], b[m])) {
        m = i;
      }
    }
    return m;
  }

  // Moves an event's payload into a free slab slot; returns the slot.
  uint32_t Store(uint64_t timer, uint32_t ctx, InlineFn&& fn) {
    if (free_head_ == kNoSlot) {
      slots_.emplace_back(timer, ctx, kNoSlot, std::move(fn));
      return static_cast<uint32_t>(slots_.size() - 1);
    }
    const uint32_t i = free_head_;
    Slot& s = slots_[i];
    free_head_ = s.next_free;
    s.timer = timer;
    s.ctx = ctx;
    s.fn = std::move(fn);
    return i;
  }

  SimTime width() const { return static_cast<SimTime>(1) << width_shift_; }

  size_t BucketFor(SimTime t) const {
    return static_cast<size_t>(static_cast<uint64_t>(t) >> width_shift_) &
           (buckets_.size() - 1);
  }

  // Exclusive upper edge of the window containing t.
  SimTime TopFor(SimTime t) const {
    return static_cast<SimTime>(
        ((static_cast<uint64_t>(t) >> width_shift_) + 1) << width_shift_);
  }

  // Width heuristic input: EWMA (1/16 weight) of the gaps between distinct
  // pop times, held in 16x fixed point. A zero gap (a tie) is skipped: it
  // lands in the same bucket at any width. With plain integer ns a small
  // average stalls: at avg = 15 a gap of 1 gives delta / 16 == 0, the
  // average never decays, and the bucket width sticks ~16x too wide. A
  // single gap's influence is clamped to 8x the average so an idle stretch
  // does not blow the width up.
  void UpdateGapEwma(SimTime t) {
    if (t == last_pop_) {
      return;
    }
    uint64_t gap = static_cast<uint64_t>(t - last_pop_);
    last_pop_ = t;
    const uint64_t cap = avg_gap() * 8 + 8;
    if (gap > cap) {
      gap = cap;
    }
    avg_gap_fp_ += gap - avg_gap_fp_ / 16;
  }

  // Average pop-to-pop gap in ns (>= 1).
  uint64_t avg_gap() const {
    const uint64_t avg = avg_gap_fp_ / 16;
    return avg > 0 ? avg : 1;
  }

  // Points cur_bucket_/cur_top_/min_idx_ at the minimum event.
  void Locate();

  void MaybeShrink();

  // Rebuilds with `new_buckets` buckets and a width recomputed from the
  // recent inter-pop gap average.
  void Resize(size_t new_buckets);

  std::vector<Bucket> buckets_;
  std::vector<Slot> slots_;       // event payloads, indexed by Key::slot
  uint32_t free_head_ = kNoSlot;  // first free slot, linked by next_free
  uint32_t width_shift_;   // bucket time span = 1 << width_shift_ ns
  size_t cur_bucket_ = 0;  // scan position: bucket of the last located min
  size_t min_idx_ = 0;     // index of the min within buckets_[cur_bucket_]
  SimTime cur_top_;        // exclusive upper time edge of cur_bucket_'s window
  size_t size_ = 0;
  bool located_ = false;   // buckets_[cur_bucket_][min_idx_] is the global min
  SimTime last_pop_ = 0;     // time of the last popped event (for gap EWMA)
  uint64_t avg_gap_fp_ = 0;  // EWMA of pop-to-pop gaps, ns in 16x fixed point
  size_t ops_since_resize_ = 0;   // shrink amortization guard
  size_t peak_since_resize_ = 0;  // high-water mark of size_ (shrink guard)
  uint64_t direct_searches_ = 0;  // Locate fallbacks (cold path)
  std::vector<Key> scratch_;      // reused by Resize
};

}  // namespace gms

#endif  // SRC_SIM_EVENT_QUEUE_H_
