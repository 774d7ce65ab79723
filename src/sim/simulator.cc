#include "src/sim/simulator.h"

#include <utility>

namespace gms {

void Simulator::At(SimTime t, EventFn fn) {
  assert(t >= now_);
  queue_.Push(t, MakeStamp(), 0, cur_ctx_, std::move(fn));
}

void Simulator::After(SimTime delay, EventFn fn) {
  assert(delay >= 0);
  queue_.Push(now_ + delay, MakeStamp(), 0, cur_ctx_, std::move(fn));
}

TimerId Simulator::ScheduleTimer(SimTime delay, EventFn fn) {
  assert(delay >= 0);
  const TimerId id = ++next_timer_;
  armed_.Insert(id);
  queue_.Push(now_ + delay, MakeStamp(), id, cur_ctx_, std::move(fn));
  return id;
}

void Simulator::CancelTimer(TimerId id) {
  if (id != 0) {
    armed_.Erase(id);
  }
}

void Simulator::AtContext(uint32_t ctx, SimTime t, EventFn fn) {
  // Mirrors At() rather than calling it so the closure is not relocated an
  // extra time through the by-value parameter — Send() routes every datagram
  // delivery here, making this the per-message hot path.
  assert(ctx < kMaxContexts);
  assert(t >= now_);
  queue_.Push(t, MakeStamp(), 0, ctx, std::move(fn));
}

Simulator::ContextScope::ContextScope(Simulator& sim, uint32_t ctx)
    : sim_(sim), saved_ctx_(sim.cur_ctx_) {
  assert(ctx < kMaxContexts);
  sim.cur_ctx_ = ctx;
}

Simulator::ContextScope::~ContextScope() { sim_.cur_ctx_ = saved_ctx_; }

uint64_t Simulator::Run() { return RunLoop(false, 0); }

uint64_t Simulator::RunUntil(SimTime t) { return RunLoop(true, t); }

uint64_t Simulator::RunLoop(bool bounded, SimTime limit) {
  stopped_ = false;
  const uint64_t start = processed_;
  EventFn fn;
  while (!queue_.empty() && !stopped_) {
    if (bounded && queue_.MinTime() > limit) {
      break;
    }
    const CalendarQueue::Popped e = queue_.PopMin(fn);
    now_ = e.time;
    if (e.timer != 0 && !armed_.Erase(e.timer)) {
      continue;  // cancelled before it fired
    }
    cur_ctx_ = e.ctx;
    fn();
    processed_++;
  }
  cur_ctx_ = 0;
  if (bounded && !stopped_ && now_ < limit) {
    now_ = limit;
  }
  return processed_ - start;
}

}  // namespace gms
