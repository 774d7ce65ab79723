// Direct tests of the calendar queue (src/sim/event_queue.h): its pop order
// against a reference sort by (time, stamp), and its behaviour under the
// epoch protocol's burst shape.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/sim/event_queue.h"
#include "src/sim/inline_fn.h"
#include "src/sim/simulator.h"

namespace gms {
namespace {

// A CalendarQueue next to a reference map keyed by (time, stamp). Every pop
// must return the reference minimum: its time, timer and ctx, and the
// closure pushed with it.
class QueueModel {
 public:
  // Pushes an event at t >= now(). Every third event carries a timer id.
  void Push(SimTime t, uint32_t ctx) {
    const uint64_t n = next_++;
    const uint64_t stamp = (static_cast<uint64_t>(ctx) << 40) | n;
    const uint64_t timer = n % 3 == 0 ? n + 1 : 0;
    q_.Push(t, stamp, timer, ctx, [this, stamp] { fired_ = stamp; });
    ref_.emplace(std::pair{t, stamp}, std::pair{timer, ctx});
  }

  void PopAndCheck() {
    ASSERT_FALSE(ref_.empty());
    const auto it = ref_.begin();
    ASSERT_EQ(q_.MinTime(), it->first.first);
    InlineFn fn;
    const CalendarQueue::Popped e = q_.PopMin(fn);
    fn();
    ASSERT_EQ(e.time, it->first.first);
    ASSERT_EQ(fired_, it->first.second);
    ASSERT_EQ(e.timer, it->second.first);
    ASSERT_EQ(e.ctx, it->second.second);
    now_ = e.time;
    ref_.erase(it);
    ASSERT_EQ(q_.size(), ref_.size());
  }

  // What RunUntil does when it stops before pending work: it locates the
  // minimum, finds it beyond the limit, and advances the clock part way to
  // it. A push at the new clock may then land behind the scan window.
  void AdvanceClockBeforeMin(Rng& rng) {
    if (q_.empty()) {
      return;
    }
    const SimTime min = q_.MinTime();
    now_ += static_cast<SimTime>(
        rng.NextBelow(static_cast<uint64_t>(min - now_) + 1));
  }

  SimTime now() const { return now_; }
  size_t size() const { return ref_.size(); }

 private:
  CalendarQueue q_;
  std::map<std::pair<SimTime, uint64_t>, std::pair<uint64_t, uint32_t>> ref_;
  uint64_t next_ = 0;
  uint64_t fired_ = 0;
  SimTime now_ = 0;
};

// Offset of a new event from the clock. Mixes heavy ties (a handful of
// distinct offsets), near events and far timers.
SimTime Offset(Rng& rng) {
  switch (rng.NextBelow(4)) {
    case 0:
      return 0;
    case 1:
      return static_cast<SimTime>(rng.NextBelow(4)) * Microseconds(10);
    case 2:
      return static_cast<SimTime>(rng.NextBelow(5000));
    default:
      return Milliseconds(200) +
             static_cast<SimTime>(rng.NextBelow(Milliseconds(200)));
  }
}

// Grows the population to several thousand and drains it to zero, three
// times, so the bucket count doubles and halves; clock jumps before pushes
// exercise the behind-the-window rewind.
TEST(EventQueueTest, PopOrderMatchesReferenceSortAcrossGrowAndShrink) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    QueueModel m;
    for (int cycle = 0; cycle < 3; ++cycle) {
      while (m.size() < 5000) {
        if (rng.NextBool(0.75)) {
          if (rng.NextBool(0.05)) {
            m.AdvanceClockBeforeMin(rng);
          }
          m.Push(m.now() + Offset(rng),
                 static_cast<uint32_t>(rng.NextBelow(4)));
        } else if (m.size() > 0) {
          ASSERT_NO_FATAL_FAILURE(m.PopAndCheck());
        }
      }
      while (m.size() > 0) {
        if (rng.NextBool(0.2)) {
          m.Push(m.now() + Offset(rng),
                 static_cast<uint32_t>(rng.NextBelow(4)));
        } else {
          ASSERT_NO_FATAL_FAILURE(m.PopAndCheck());
        }
      }
    }
  }
}

// All events at one instant: order is the stamp alone.
TEST(EventQueueTest, AllTiesPopInStampOrder) {
  Rng rng(7);
  QueueModel m;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 3000; ++i) {
      m.Push(m.now() + Microseconds(5),
             static_cast<uint32_t>(rng.NextBelow(8)));
    }
    while (m.size() > 0) {
      ASSERT_NO_FATAL_FAILURE(m.PopAndCheck());
    }
  }
}

// A far event moves the window to its year (direct search); pushes at the
// clock then land behind the window and must still pop first.
TEST(EventQueueTest, PushBehindTheWindowPopsFirst) {
  QueueModel m;
  m.Push(Seconds(1), 0);
  Rng rng(3);
  m.AdvanceClockBeforeMin(rng);
  m.Push(m.now(), 2);
  m.Push(m.now(), 1);
  m.Push(m.now() + 1, 0);
  while (m.size() > 0) {
    ASSERT_NO_FATAL_FAILURE(m.PopAndCheck());
  }
}

// The same differential through the Simulator: events created from several
// contexts, timers cancelled before they fire, RunUntil stopping short of
// pending work and pushes at the advanced clock. Every fired event must be
// the reference minimum of (time, creator ctx, creation count).
class SimModel {
 public:
  explicit SimModel(uint64_t seed) : rng_(seed) {}

  void Schedule() {
    const uint32_t ctx = static_cast<uint32_t>(rng_.NextBelow(4));
    const Simulator::ContextScope scope(sim_, ctx);
    const SimTime t = sim_.now() + Offset(rng_);
    const Key key{t, (static_cast<uint64_t>(ctx) << 40) | created_++};
    ref_.emplace(key, 0);
    if (rng_.NextBool(0.5)) {
      const TimerId id = sim_.ScheduleTimer(t - sim_.now(), Fire{this, key});
      ref_[key] = id;
      timers_.push_back(id);
    } else {
      sim_.At(t, Fire{this, key});
    }
  }

  void CancelSome() {
    for (size_t i = 0; i < timers_.size(); ++i) {
      if (rng_.NextBool(0.3)) {
        sim_.CancelTimer(timers_[i]);
        for (auto it = ref_.begin(); it != ref_.end(); ++it) {
          if (it->second == timers_[i]) {
            ref_.erase(it);
            break;
          }
        }
      }
    }
    timers_.clear();
  }

  void Run(int steps) {
    for (int s = 0; s < steps; ++s) {
      const int pushes = static_cast<int>(rng_.NextBelow(50));
      for (int i = 0; i < pushes; ++i) {
        Schedule();
      }
      if (rng_.NextBool(0.3)) {
        CancelSome();
      }
      sim_.RunFor(static_cast<SimTime>(rng_.NextBelow(Milliseconds(50))));
      ASSERT_FALSE(mismatch_) << "step " << s;
    }
    sim_.Run();
    ASSERT_FALSE(mismatch_);
    EXPECT_TRUE(ref_.empty());
    EXPECT_GT(fired_, 1000u);
  }

 private:
  using Key = std::pair<SimTime, uint64_t>;

  struct Fire {
    SimModel* m;
    Key key;
    void operator()() const { m->OnFire(key); }
  };

  void OnFire(const Key& key) {
    fired_++;
    if (ref_.empty() || ref_.begin()->first != key ||
        sim_.now() != key.first) {
      mismatch_ = true;
      return;
    }
    ref_.erase(ref_.begin());
    // Fired events schedule follow-ups, as handlers do.
    if (rng_.NextBool(0.3)) {
      Schedule();
    }
  }

  Rng rng_;
  Simulator sim_;
  std::map<Key, TimerId> ref_;  // pending, uncancelled events
  std::vector<TimerId> timers_;
  uint64_t created_ = 0;
  uint64_t fired_ = 0;
  bool mismatch_ = false;
};

TEST(EventQueueTest, SimulatorOrderMatchesReferenceWithCancelsAndRunUntil) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SimModel m(seed);
    ASSERT_NO_FATAL_FAILURE(m.Run(400));
  }
}

// The epoch protocol's event shape: each epoch the initiator's requests
// reach every node at one instant and every reply lands at one instant,
// while each node keeps a timer 200-400 ms out. A width estimate that counts
// those ties as zero gaps shrinks the calendar's year to a few µs, and every
// timer pop after a burst then falls to the direct search over all buckets
// (about 9.3K of them on this schedule, against 1 with ties skipped).
class BurstSchedule {
 public:
  static constexpr int kNodes = 1000;
  static constexpr SimTime kHop = Microseconds(50);
  static constexpr SimTime kEpoch = Milliseconds(100);

  void Start() {
    for (int i = 0; i < kNodes; ++i) {
      ArmTimer();
    }
    At(kEpoch, [this] { Epoch(); });
  }

  void RunUntil(SimTime end) {
    InlineFn fn;
    while (!q_.empty() && q_.MinTime() <= end) {
      now_ = q_.PopMin(fn).time;
      fn();
      pops_++;
    }
  }

  const CalendarQueue& queue() const { return q_; }
  uint64_t pops() const { return pops_; }

 private:
  void At(SimTime t, InlineFn&& fn) {
    q_.Push(t, next_stamp_++, 0, 0, std::move(fn));
  }

  void ArmTimer() {
    At(now_ + Milliseconds(200) +
           static_cast<SimTime>(rng_.NextBelow(Milliseconds(200))),
       [this] { ArmTimer(); });
  }

  void Epoch() {
    for (int i = 0; i < kNodes; ++i) {
      At(now_ + kHop, [this] { At(now_ + kHop, [] {}); });
    }
    At(now_ + kEpoch, [this] { Epoch(); });
  }

  CalendarQueue q_;
  Rng rng_{1};
  SimTime now_ = 0;
  uint64_t next_stamp_ = 0;
  uint64_t pops_ = 0;
};

TEST(EventQueueTest, EpochBurstsDoNotForceDirectSearches) {
  BurstSchedule s;
  s.Start();
  s.RunUntil(Seconds(3));
  // 29 bursts of 2000 events plus about 10K timer pops.
  EXPECT_GT(s.pops(), 60000u);
  EXPECT_LE(s.queue().direct_searches(), 50u);
}

}  // namespace
}  // namespace gms
