// Unit tests for the discrete-event engine and the CPU model.
#include <gtest/gtest.h>

#include <vector>

#include "src/sim/cpu.h"
#include "src/sim/simulator.h"

namespace gms {
namespace {

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.At(Microseconds(30), [&] { order.push_back(3); });
  sim.At(Microseconds(10), [&] { order.push_back(1); });
  sim.At(Microseconds(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Microseconds(30));
}

TEST(SimulatorTest, SameTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; i++) {
    sim.At(Microseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, AfterIsRelativeToNow) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.At(Microseconds(10), [&] {
    sim.After(Microseconds(5), [&] { fired_at = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(fired_at, Microseconds(15));
}

TEST(SimulatorTest, RunUntilAdvancesClockToBound) {
  Simulator sim;
  int fired = 0;
  sim.At(Microseconds(10), [&] { fired++; });
  sim.At(Microseconds(100), [&] { fired++; });
  sim.RunUntil(Microseconds(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Microseconds(50));
  sim.RunUntil(Microseconds(200));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), Microseconds(200));
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim;
  sim.RunFor(Milliseconds(3));
  sim.RunFor(Milliseconds(4));
  EXPECT_EQ(sim.now(), Milliseconds(7));
}

TEST(SimulatorTest, CancelledTimerDoesNotFire) {
  Simulator sim;
  bool fired = false;
  const TimerId id = sim.ScheduleTimer(Microseconds(10), [&] { fired = true; });
  sim.CancelTimer(id);
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, UncancelledTimerFires) {
  Simulator sim;
  bool fired = false;
  sim.ScheduleTimer(Microseconds(10), [&] { fired = true; });
  sim.Run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, CancelAfterFireIsHarmless) {
  Simulator sim;
  const TimerId id = sim.ScheduleTimer(Microseconds(1), [] {});
  sim.Run();
  sim.CancelTimer(id);  // no crash, no effect
  sim.CancelTimer(0);   // zero id is a no-op
}

// Timer bookkeeping is bounded by the pending timers: a late cancel (the
// timer already fired, as when a timer's own callback cancels it) and a
// double cancel leave nothing behind, and a cancelled timer is forgotten
// once cancelled.
TEST(SimulatorTest, TimerStateIsBoundedByPendingTimers) {
  Simulator sim;
  TimerId self_cancelling = 0;
  self_cancelling = sim.ScheduleTimer(Microseconds(1), [&] {
    sim.CancelTimer(self_cancelling);
  });
  const TimerId cancelled = sim.ScheduleTimer(Microseconds(2), [] {});
  const TimerId fires = sim.ScheduleTimer(Microseconds(3), [] {});
  EXPECT_EQ(sim.pending_timers(), 3u);
  sim.CancelTimer(cancelled);
  sim.CancelTimer(cancelled);
  EXPECT_EQ(sim.pending_timers(), 2u);
  sim.Run();
  EXPECT_EQ(sim.pending_timers(), 0u);
  for (int i = 0; i < 100; i++) {
    sim.CancelTimer(fires);
    sim.CancelTimer(self_cancelling);
  }
  EXPECT_EQ(sim.pending_timers(), 0u);
  // A later timer still fires after all the late cancels.
  bool fired = false;
  sim.ScheduleTimer(Microseconds(1), [&] { fired = true; });
  EXPECT_EQ(sim.pending_timers(), 1u);
  sim.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.pending_timers(), 0u);
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; i++) {
    sim.At(Microseconds(i), [&] {
      count++;
      if (count == 3) {
        sim.Stop();
      }
    });
  }
  sim.Run();
  EXPECT_EQ(count, 3);
  sim.Run();  // resumes with remaining events
  EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, EventsScheduledDuringRunAreProcessed) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) {
      sim.After(Microseconds(1), chain);
    }
  };
  sim.After(0, chain);
  sim.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), Microseconds(99));
}

// The tie order every golden digest relies on: same-time events run in
// context-id order, and in creation order within one context.
TEST(SimulatorTest, SameTimeEventsRunInContextThenCreationOrder) {
  Simulator sim;
  std::vector<int> order;
  const SimTime t = Microseconds(5);
  {
    Simulator::ContextScope in_ctx(sim, 7);
    sim.At(t, [&] { order.push_back(70); });
    sim.At(t, [&] { order.push_back(71); });
  }
  {
    Simulator::ContextScope in_ctx(sim, 2);
    sim.At(t, [&] { order.push_back(20); });
  }
  sim.At(t, [&] { order.push_back(0); });  // ctx 0, created last
  {
    Simulator::ContextScope in_ctx(sim, 2);
    sim.At(t, [&] { order.push_back(21); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 20, 21, 70, 71}));
}

TEST(SimulatorTest, ContextScopeRestoresOuterContext) {
  Simulator sim;
  std::vector<char> order;
  const SimTime t = Microseconds(5);
  {
    Simulator::ContextScope outer(sim, 1);
    {
      Simulator::ContextScope inner(sim, 3);
      sim.At(t, [&] { order.push_back('a'); });  // ctx 3
    }
    sim.At(t, [&] { order.push_back('b'); });  // back in ctx 1
  }
  sim.At(t, [&] { order.push_back('c'); });  // back in ctx 0
  sim.Run();
  // Had either scope leaked, 'b' would sort after 'a' or 'c' after 'b'.
  EXPECT_EQ(order, (std::vector<char>{'c', 'b', 'a'}));
}

TEST(SimulatorTest, AtContextEventRunsAsItsContext) {
  Simulator sim;
  std::vector<char> order;
  const SimTime t = Microseconds(10);
  // The ctx-5 event schedules 'x' before the ctx-2 event schedules 'y', so
  // creation order alone would run 'x' first; 'x' carrying ctx 5's stamp is
  // what puts it after 'y'.
  sim.AtContext(5, Microseconds(1), [&] {
    sim.At(t, [&] { order.push_back('x'); });
  });
  sim.AtContext(2, Microseconds(2), [&] {
    sim.At(t, [&] { order.push_back('y'); });
  });
  sim.At(t, [&] { order.push_back('z'); });  // ctx 0
  sim.Run();
  EXPECT_EQ(order, (std::vector<char>{'z', 'y', 'x'}));
}

TEST(SimulatorTest, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; i++) {
    sim.After(i, [] {});
  }
  EXPECT_EQ(sim.Run(), 5u);
  EXPECT_EQ(sim.events_processed(), 5u);
}

// --- cpu ---

TEST(CpuTest, SerializesTasks) {
  Simulator sim;
  Cpu cpu(&sim);
  std::vector<SimTime> completions;
  cpu.SubmitKernel(Microseconds(10), CpuCategory::kService,
                   [&] { completions.push_back(sim.now()); });
  cpu.SubmitKernel(Microseconds(10), CpuCategory::kService,
                   [&] { completions.push_back(sim.now()); });
  sim.Run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0], Microseconds(10));
  EXPECT_EQ(completions[1], Microseconds(20));
}

TEST(CpuTest, KernelPriorityRunsBeforeQueuedUserWork) {
  Simulator sim;
  Cpu cpu(&sim);
  std::vector<int> order;
  // Submit while idle: the first task starts immediately regardless of
  // priority; everything queued after competes by priority.
  cpu.Submit(Microseconds(10), CpuCategory::kWorkload, Cpu::kPriorityUser,
             [&] { order.push_back(0); });
  cpu.Submit(Microseconds(10), CpuCategory::kWorkload, Cpu::kPriorityUser,
             [&] { order.push_back(1); });
  cpu.SubmitKernel(Microseconds(1), CpuCategory::kService,
                   [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST(CpuTest, AccountsBusyTimePerCategory) {
  Simulator sim;
  Cpu cpu(&sim);
  cpu.Submit(Microseconds(30), CpuCategory::kWorkload, Cpu::kPriorityUser, {});
  cpu.SubmitKernel(Microseconds(20), CpuCategory::kService, {});
  cpu.SubmitKernel(Microseconds(5), CpuCategory::kEpoch, {});
  sim.Run();
  EXPECT_EQ(cpu.busy_time(CpuCategory::kWorkload), Microseconds(30));
  EXPECT_EQ(cpu.busy_time(CpuCategory::kService), Microseconds(20));
  EXPECT_EQ(cpu.busy_time(CpuCategory::kEpoch), Microseconds(5));
  EXPECT_EQ(cpu.total_busy_time(), Microseconds(55));
  EXPECT_EQ(cpu.completed(CpuCategory::kService), 1u);
}

TEST(CpuTest, ZeroDurationTaskCompletes) {
  Simulator sim;
  Cpu cpu(&sim);
  bool ran = false;
  cpu.SubmitKernel(0, CpuCategory::kFault, [&] { ran = true; });
  sim.Run();
  EXPECT_TRUE(ran);
}

TEST(CpuTest, CompletionMaySubmitMoreWork) {
  Simulator sim;
  Cpu cpu(&sim);
  int chained = 0;
  std::function<void()> chain = [&] {
    if (++chained < 5) {
      cpu.SubmitKernel(Microseconds(2), CpuCategory::kFault, chain);
    }
  };
  cpu.SubmitKernel(Microseconds(2), CpuCategory::kFault, chain);
  sim.Run();
  EXPECT_EQ(chained, 5);
  EXPECT_EQ(cpu.busy_time(CpuCategory::kFault), Microseconds(10));
}

TEST(CpuTest, IdleWhenDrained) {
  Simulator sim;
  Cpu cpu(&sim);
  cpu.SubmitKernel(Microseconds(1), CpuCategory::kService, {});
  EXPECT_TRUE(cpu.busy());
  sim.Run();
  EXPECT_FALSE(cpu.busy());
}

}  // namespace
}  // namespace gms
