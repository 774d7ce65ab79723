// Deterministic discrete-event simulation engine.
//
// Everything in the cluster model (network delivery, disk completion, epoch
// timers, CPU task completion) is an event ordered by an intrinsic key
// (time, stamp). The stamp packs the creating context's id above a monotone
// counter (stamp = ctx << 40 | counter), so same-time events run in context
// order, and in creation order within one context. That order is the
// determinism backbone every trace digest and golden dump relies on.
//
// Contexts: ctx 0 is the control/harness context, ctx i+1 owns node i's
// state. A context is "who creates and owns this event": an event runs as
// the context it was scheduled into, and everything it schedules is stamped
// with that context. Events scheduled from plain code (outside any event and
// any ContextScope) belong to ctx 0.
//
// The hot path is allocation-free: events are InlineFn closures (inline
// small-buffer storage, src/sim/inline_fn.h) stored in a calendar queue
// (src/sim/event_queue.h), and timers are tracked in a flat open-addressing
// set of armed ids. After warm-up, scheduling + dispatching an event touches
// no allocator.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "src/common/flat_set.h"
#include "src/common/time.h"
#include "src/sim/event_queue.h"
#include "src/sim/inline_fn.h"

namespace gms {

using EventFn = InlineFn;

// Identifies a cancellable timer. Zero is never a valid id.
using TimerId = uint64_t;

class Simulator {
 public:
  Simulator() { armed_.Reserve(kArmedReserve); }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulated time.
  SimTime now() const { return now_; }

  // Schedules fn to run at absolute simulated time t (>= now) in the
  // executing context.
  void At(SimTime t, EventFn fn);

  // Schedules fn to run after the given delay (>= 0) in the executing
  // context.
  void After(SimTime delay, EventFn fn);

  // Like After, but returns an id that can cancel the event before it fires.
  TimerId ScheduleTimer(SimTime delay, EventFn fn);

  // Cancels a pending timer. Cancelling an already-fired or already-cancelled
  // timer is a harmless no-op: it leaves no state behind.
  void CancelTimer(TimerId id);

  // Timers scheduled and neither fired nor cancelled yet.
  size_t pending_timers() const { return armed_.size(); }

  // --- Contexts -----------------------------------------------------------

  // Schedules fn at absolute time t (>= now) to run as context `ctx`. The
  // event itself is stamped by the executing context (its creator); the
  // events fn schedules are stamped by `ctx`.
  void AtContext(uint32_t ctx, SimTime t, EventFn fn);

  // Enters context `ctx` for the scope's lifetime: events scheduled inside
  // are stamped and owned by that context. For harness and control code
  // crossing into node state — e.g. starting a workload on node 3, or a
  // chaos script crashing a node. Restores the outer context on exit.
  class ContextScope {
   public:
    ContextScope(Simulator& sim, uint32_t ctx);
    ~ContextScope();
    ContextScope(const ContextScope&) = delete;
    ContextScope& operator=(const ContextScope&) = delete;

   private:
    Simulator& sim_;
    uint32_t saved_ctx_;
  };

  // --- Execution ----------------------------------------------------------

  // Runs until the queue is empty or Stop() is called. Returns the number of
  // events processed by this call.
  uint64_t Run();

  // Processes all events with time <= t, then advances the clock to t.
  // Returns the number of events processed.
  uint64_t RunUntil(SimTime t);

  // Convenience: RunUntil(now() + d).
  uint64_t RunFor(SimTime d) { return RunUntil(now() + d); }

  // Makes Run/RunUntil return after the current event completes.
  void Stop() { stopped_ = true; }

  bool empty() const { return queue_.empty(); }

  uint64_t events_processed() const { return processed_; }

 private:
  // Context ids occupy the stamp bits above the 40-bit counter.
  static constexpr uint32_t kMaxContexts = 1u << 24;
  // Armed-timer slots reserved at construction (64 ids, 1 KB), so a run's
  // first timers never rehash the set. Measured: with a lazily grown set,
  // glibc placed later allocations differently between perfbench passes and
  // paging_read's peak RSS went from 21 to 30 MB.
  static constexpr size_t kArmedReserve = 64;

  // Issues the intrinsic order key for a new event created by the executing
  // context: within one context stamps increase in creation order; across
  // contexts ties break on the context bits.
  uint64_t MakeStamp() {
    assert(next_stamp_ < (1ull << 40));
    return (static_cast<uint64_t>(cur_ctx_) << 40) | next_stamp_++;
  }

  uint64_t RunLoop(bool bounded, SimTime limit);

  CalendarQueue queue_;
  // Ids of the timers still pending: scheduling inserts, cancelling and
  // firing erase, so the set is bounded by the pending timers.
  FlatSet64 armed_;
  SimTime now_ = 0;
  uint64_t next_stamp_ = 0;  // low 40 bits of the next stamp
  uint64_t next_timer_ = 0;  // last timer id issued
  uint64_t processed_ = 0;
  uint32_t cur_ctx_ = 0;     // the executing context
  bool stopped_ = false;
};

}  // namespace gms

#endif  // SRC_SIM_SIMULATOR_H_
