// Allocation accounting for the simulation hot path. This TU replaces the
// global operator new/delete with counting versions and proves the two core
// loops are allocation-free at steady state:
//
//   * scheduling + dispatching events through the calendar queue, steady
//     and in epoch-style bursts, and
//   * sending a datagram and delivering it through the network
//     (send -> egress -> delivery event -> handler dispatch).
//
// Warm-up rounds let buckets, vectors, and hash sets reach their working
// capacity; the measured rounds then repeat the identical workload and must
// touch the allocator zero times. A regression that reintroduces a per-event
// or per-message allocation (a std::function that outgrew its SSO, a payload
// that went back to boxing, a queue that churns buckets) fails immediately
// with the exact allocation count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/histogram.h"
#include "src/common/node_id.h"
#include "src/core/cache_engine.h"
#include "src/core/directory.h"
#include "src/core/ensemble_policy.h"
#include "src/mem/ghost_cache.h"
#include "src/core/messages.h"
#include "src/mem/frame_table.h"
#include "src/nchance/nchance_policy.h"
#include "src/net/network.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/cpu.h"
#include "src/sim/simulator.h"

namespace {

std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_frees{0};
std::atomic<uint64_t> g_alloc_bytes{0};

void* CountedAlloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void CountedFree(void* p) noexcept {
  if (p != nullptr) {
    g_frees.fetch_add(1, std::memory_order_relaxed);
    std::free(p);
  }
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }

namespace gms {
namespace {

// Counts allocator calls across a region. Construct after warm-up; check
// after the measured work.
struct AllocWindow {
  uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  uint64_t frees0 = g_frees.load(std::memory_order_relaxed);
  uint64_t bytes0 = g_alloc_bytes.load(std::memory_order_relaxed);
  uint64_t allocs() const {
    return g_allocs.load(std::memory_order_relaxed) - allocs0;
  }
  uint64_t bytes() const {
    return g_alloc_bytes.load(std::memory_order_relaxed) - bytes0;
  }
  uint64_t frees() const {
    return g_frees.load(std::memory_order_relaxed) - frees0;
  }
};

// Hold-model workload: a constant population of 1024 self-perpetuating
// event chains, each pop scheduling its replacement at a fixed per-chain
// delay (32/64/96 ns, staggered start phases). Population, width estimate,
// and per-bucket loads are all exactly periodic, so once the warm-up has
// wrapped the calendar's bucket ring every capacity has seen its working
// maximum and the measured window must be allocation-free. (Fully random
// delays would keep setting new per-bucket load records forever — a
// different, amortized guarantee.)
struct EventPump {
  Simulator* sim;
  uint64_t* fired;
  SimTime delay;
  void operator()() {
    ++*fired;
    sim->After(delay, EventPump{sim, fired, delay});
  }
};

TEST(AllocTest, EventScheduleDispatchIsAllocationFreeAtSteadyState) {
  Simulator sim;
  uint64_t fired = 0;
  for (uint64_t i = 0; i < 1024; ++i) {
    sim.After(1 + i % 97,
              EventPump{&sim, &fired, 32 * (1 + static_cast<SimTime>(i % 3))});
  }
  sim.RunFor(Microseconds(50));  // warm-up: ~1M events, many bucket wraps
  const AllocWindow window;
  const uint64_t fired0 = fired;
  sim.RunFor(Microseconds(10));
  EXPECT_GT(fired - fired0, 100000u);
  EXPECT_EQ(window.allocs(), 0u)
      << "scheduling/dispatching an event allocated at steady state";
  EXPECT_EQ(window.frees(), 0u);
}

// Hold model over timers: one pump chain arms a long-dated timer per step
// into a slot ring; revisiting a slot kRing steps later cancels the pending
// timer on even steps (exercising insert + erase in the cancelled-id set)
// and abandons it to fire normally on odd steps. Pending-timer population
// and cancelled-set size are both stationary.
constexpr size_t kTimerRing = 128;
struct TimerPump {
  Simulator* sim;
  TimerId* ring;
  uint64_t* step;
  void operator()() {
    const uint64_t n = (*step)++;
    const size_t slot = n % kTimerRing;
    if (n >= kTimerRing && (n & 1) == 0) {
      sim->CancelTimer(ring[slot]);
    }
    ring[slot] = sim->ScheduleTimer(20000, [] {});
    sim->After(64, TimerPump{sim, ring, step});
  }
};

TEST(AllocTest, TimerScheduleCancelIsAllocationFreeAtSteadyState) {
  Simulator sim;
  TimerId ring[kTimerRing] = {};
  uint64_t step = 0;
  sim.After(1, TimerPump{&sim, ring, &step});
  sim.RunFor(Milliseconds(1));
  const AllocWindow window;
  const uint64_t step0 = step;
  sim.RunFor(Microseconds(200));
  EXPECT_GT(step - step0, 2000u);
  EXPECT_EQ(window.allocs(), 0u)
      << "timer schedule/cancel allocated at steady state";
}

// The epoch protocol's burst shape: every epoch 1000 requests land at one
// instant and 1000 replies at the next, while 1000 node timers re-arm about
// 268 ms out. Bursts fill the queue's slab to 2000+ live events and drain
// it, so a slab that freed or regrew slots, or buckets that churned their
// capacity, allocate here. Periods are powers of two (timer 2^28 ns, epoch
// 2^26 ns, hop 2^14 ns), so the schedule repeats exactly and bucket loads
// stop setting records once warm-up has wrapped the calendar.
constexpr int kBurstNodes = 1000;
constexpr SimTime kBurstTimerPeriod = SimTime{1} << 28;
constexpr SimTime kBurstEpoch = SimTime{1} << 26;
constexpr SimTime kBurstHop = SimTime{1} << 14;
struct BurstTimer {
  Simulator* sim;
  uint64_t* fired;
  void operator()() {
    ++*fired;
    sim->ScheduleTimer(kBurstTimerPeriod, BurstTimer{sim, fired});
  }
};
struct BurstRequest {
  Simulator* sim;
  uint64_t* fired;
  void operator()() {
    ++*fired;
    sim->After(kBurstHop, [fired = fired] { ++*fired; });
  }
};
struct BurstEpoch {
  Simulator* sim;
  uint64_t* fired;
  void operator()() {
    for (int i = 0; i < kBurstNodes; ++i) {
      sim->After(kBurstHop, BurstRequest{sim, fired});
    }
    sim->After(kBurstEpoch, BurstEpoch{sim, fired});
  }
};

TEST(AllocTest, BurstyScheduleIsAllocationFreeAtSteadyState) {
  Simulator sim;
  uint64_t fired = 0;
  for (int i = 0; i < kBurstNodes; ++i) {
    sim.ScheduleTimer(SimTime{i} << 18, BurstTimer{&sim, &fired});
  }
  sim.After(kBurstEpoch, BurstEpoch{&sim, &fired});
  // Warm-up as long as the measured window: a slab that never reused its
  // slots would grow past a power of two, and reallocate, inside it.
  sim.RunFor(4 * kBurstTimerPeriod);
  const AllocWindow window;
  const uint64_t fired0 = fired;
  sim.RunFor(4 * kBurstTimerPeriod);
  EXPECT_GT(fired - fired0, 30000u);
  EXPECT_EQ(window.allocs(), 0u)
      << "a bursty schedule allocated at steady state";
  EXPECT_EQ(window.frees(), 0u);
}

// Ping-pong a GetPageMiss between two nodes: every trip is one Send (payload
// construction, egress accounting, delivery closure capture) plus one
// dispatch into a handler. The Datagram rides inline in the event queue and
// the payload is an inline TaggedUnion alternative, so the whole trip must
// be allocation-free.
TEST(AllocTest, MessageSendDeliverDispatchIsAllocationFreeAtSteadyState) {
  Simulator sim;
  Network net(&sim, 2);
  uint64_t remaining = 0;
  uint64_t delivered = 0;
  net.Attach(NodeId{1}, [&net](Datagram&& d) {
    const auto& miss = d.payload.get<GetPageMiss>();
    net.Send(Datagram{NodeId{1}, NodeId{0}, 64, 2,
                      GetPageMiss{miss.uid, miss.op_id + 1}});
  });
  net.Attach(NodeId{0}, [&net, &remaining, &delivered](Datagram&& d) {
    delivered++;
    if (remaining > 0) {
      remaining--;
      const auto& miss = d.payload.get<GetPageMiss>();
      net.Send(Datagram{NodeId{0}, NodeId{1}, 64, 2,
                        GetPageMiss{miss.uid, miss.op_id + 1}});
    }
  });
  auto run_trips = [&](uint64_t trips) {
    remaining = trips;
    net.Send(Datagram{NodeId{0}, NodeId{1}, 64, 2, GetPageMiss{Uid{}, 0}});
    sim.Run();
  };
  run_trips(4096);  // warm-up: queue buckets and counters reach capacity
  const AllocWindow window;
  const uint64_t before = delivered;
  run_trips(4096);
  EXPECT_GE(delivered - before, 4096u);
  EXPECT_EQ(window.allocs(), 0u)
      << "a message send->deliver->dispatch trip allocated at steady state";
  EXPECT_EQ(window.frees(), 0u);
}

TEST(AllocTest, InlinePayloadDatagramMovesNeverAllocate) {
  Datagram d{NodeId{0}, NodeId{1}, 64, 2, GetPageMiss{Uid{}, 7}};
  const AllocWindow window;
  Datagram moved(std::move(d));
  Datagram again(std::move(moved));
  d = std::move(again);
  EXPECT_EQ(d.payload.get<GetPageMiss>().op_id, 7u);
  EXPECT_EQ(window.allocs(), 0u) << "moving an inline payload allocated";
}

// Tracing is the instrumentation on the hot paths above, so it gets the
// same bar: recording an event into an enabled tracer — including the ring
// flushes into the running digest — must never touch the allocator. Rings
// are preallocated at construction; a small capacity here forces hundreds
// of flushes inside the measured window.
TEST(AllocTest, TraceRecordingIsAllocationFreeAcrossRingFlushes) {
  if (!kTraceCompiledIn) {
    GTEST_SKIP() << "tracer compiled out (GMS_TRACE=OFF)";
  }
  Tracer tracer(/*num_nodes=*/4, /*ring_capacity=*/256);
  tracer.set_enabled(true);
  auto record_burst = [&tracer](uint64_t n, uint64_t base) {
    for (uint64_t i = 0; i < n; ++i) {
      tracer.Record(static_cast<SimTime>(base + i),
                    NodeId{static_cast<uint32_t>(i % 4)},
                    TraceEventKind::kLocalHit, i, i * 3, i % 5000);
    }
  };
  record_burst(4096, 0);  // warm-up (rings are preallocated, but be fair)
  const AllocWindow window;
  const uint64_t before = tracer.records_recorded();
  record_burst(100000, 4096);
  tracer.Flush();
  EXPECT_GT(tracer.records_recorded() - before, 99000u);
  EXPECT_EQ(window.allocs(), 0u)
      << "recording a trace event allocated (ring flush path?)";
  EXPECT_EQ(window.frees(), 0u);
}

// Span propagation is the causal-tracing half of the hot path: rooting a
// trace, forking a receive-side child span in place inside a message
// payload, stamping components, and ending the span. Ids come from counters
// preallocated in the Tracer, the context is a 16-byte in-place rewrite of
// an already-allocated payload, and each record is a ring store — none of it
// may touch the allocator at steady state.
TEST(AllocTest, SpanPropagationIsAllocationFreeAtSteadyState) {
  if (!kTraceCompiledIn) {
    GTEST_SKIP() << "tracer compiled out (GMS_TRACE=OFF)";
  }
  Tracer tracer(/*num_nodes=*/4, /*ring_capacity=*/256);
  tracer.set_enabled(true);
  auto request_round_trip = [&tracer](uint64_t i) {
    const SimTime t = static_cast<SimTime>(i * 1000);
    const NodeId requester{static_cast<uint32_t>(i % 4)};
    const NodeId server{static_cast<uint32_t>((i + 1) % 4)};
    const SpanRef root = TraceBegin(&tracer, t, requester, SpanOp::kGetPage);
    SpanStep(&tracer, t + 50, requester, root, SpanComp::kReqGen);
    // The wire hop: the receiver rewrites the payload's span slot in place,
    // exactly as GmsAgent::OnDatagram does.
    MessagePayload payload = GetPageReq{Uid{}, requester, i, root};
    SpanRef* slot = MutablePayloadSpan(kMsgGetPageReq, payload);
    *slot = SpanBegin(&tracer, t + 200, server, *slot);
    SpanStep(&tracer, t + 230, server, *slot, SpanComp::kQueueIsr);
    SpanStep(&tracer, t + 300, server, *slot, SpanComp::kService);
    SpanEnd(&tracer, t + 300, server, *slot, SpanStatus::kHit, 300);
  };
  for (uint64_t i = 0; i < 4096; ++i) {
    request_round_trip(i);  // warm-up
  }
  const AllocWindow window;
  const uint64_t before = tracer.records_recorded();
  for (uint64_t i = 4096; i < 36960; ++i) {
    request_round_trip(i);
  }
  tracer.Flush();
  EXPECT_GT(tracer.records_recorded() - before, 100000u);
  EXPECT_EQ(window.allocs(), 0u)
      << "span id allocation / payload rewrite / span recording allocated";
  EXPECT_EQ(window.frees(), 0u);
}

// Latency histograms sit on the access/fault/getpage completion paths. The
// first sample sizes the bucket array (one allocation, so a histogram that
// never records costs no buckets); every later sample is one array
// increment across the full value range, including the saturating top
// bucket and the negative clamp, and so are samples after Reset(), which
// keeps the storage.
TEST(AllocTest, HistogramRecordIsAllocationFree) {
  LatencyHistogram hist;
  const AllocWindow window;
  for (int64_t e = 0; e < 63; ++e) {
    for (int64_t i = 0; i < 1000; ++i) {
      hist.Record((int64_t{1} << e) + i);
    }
  }
  hist.Record(-5);
  EXPECT_EQ(hist.count(), 63u * 1000u + 1u);
  EXPECT_EQ(window.allocs(), 1u)
      << "LatencyHistogram::Record allocated past its first sample";

  hist.Reset();
  const AllocWindow after_reset;
  for (int64_t e = 0; e < 63; ++e) {
    hist.Record(int64_t{1} << e);
  }
  hist.Record(-5);
  EXPECT_EQ(hist.count(), 64u);
  EXPECT_EQ(after_reset.allocs(), 0u)
      << "LatencyHistogram::Record allocated after Reset()";
  EXPECT_EQ(after_reset.frees(), 0u);
}

// The ping-pong trip again, now with a live tracer attached to the network:
// the kNetSend record per Send must not break the allocation-free guarantee
// the untraced test above establishes.
TEST(AllocTest, MessageSendWithTracingIsAllocationFreeAtSteadyState) {
  if (!kTraceCompiledIn) {
    GTEST_SKIP() << "tracer compiled out (GMS_TRACE=OFF)";
  }
  Simulator sim;
  Network net(&sim, 2);
  Tracer tracer(/*num_nodes=*/2, /*ring_capacity=*/512);
  tracer.set_enabled(true);
  net.set_tracer(&tracer);
  uint64_t remaining = 0;
  uint64_t delivered = 0;
  net.Attach(NodeId{1}, [&net](Datagram&& d) {
    const auto& miss = d.payload.get<GetPageMiss>();
    net.Send(Datagram{NodeId{1}, NodeId{0}, 64, 2,
                      GetPageMiss{miss.uid, miss.op_id + 1}});
  });
  net.Attach(NodeId{0}, [&net, &remaining, &delivered](Datagram&& d) {
    delivered++;
    if (remaining > 0) {
      remaining--;
      const auto& miss = d.payload.get<GetPageMiss>();
      net.Send(Datagram{NodeId{0}, NodeId{1}, 64, 2,
                        GetPageMiss{miss.uid, miss.op_id + 1}});
    }
  });
  auto run_trips = [&](uint64_t trips) {
    remaining = trips;
    net.Send(Datagram{NodeId{0}, NodeId{1}, 64, 2, GetPageMiss{Uid{}, 0}});
    sim.Run();
  };
  run_trips(4096);  // warm-up
  const AllocWindow window;
  const uint64_t before = delivered;
  run_trips(4096);
  EXPECT_GE(delivered - before, 4096u);
  EXPECT_GT(tracer.records_recorded(), 8192u);  // tracing actually happened
  EXPECT_EQ(window.allocs(), 0u)
      << "a traced message trip allocated at steady state";
  EXPECT_EQ(window.frees(), 0u);
}

// The shared cache engine's per-message path: OnDatagram (receive-span fork
// slot check, ISR kernel whose closure is static_asserted inline), the
// virtual Dispatch into a protocol handler, the handler's own CPU kernel,
// and a GCD probe that misses. A GetPageReq/GetPageMiss ping-pong between a
// plain driver node and a live engine walks all of it every trip; after
// warm-up the engine may not touch the allocator — the policy seam's
// virtual dispatch and the engine's maps must all be steady-state clean.
TEST(AllocTest, EngineDispatchIsAllocationFreeAtSteadyState) {
  Simulator sim;
  Network net(&sim, 2);
  Cpu cpu(&sim);
  FrameTable frames(16);
  CacheEngine engine(&sim, &net, &cpu, &frames, NodeId{1}, EngineConfig{},
                     std::make_unique<NchancePolicy>(/*seed=*/1,
                                                     NchanceConfig{}));
  engine.Start(std::make_shared<const PodTable>(
      Pod::Build(1, {NodeId{0}, NodeId{1}})));
  net.Attach(NodeId{1},
             [&engine](Datagram&& d) { engine.OnDatagram(std::move(d)); });
  uint64_t remaining = 0;
  uint64_t round_trips = 0;
  const Uid uid = MakeAnonUid(NodeId{0}, 1, 0);
  // Driver: every GetPageMiss the engine sends back becomes the next
  // GetPageReq. The engine side runs the real protocol: receive ISR,
  // Dispatch, LookupInGcd kernel, directory miss, miss reply.
  net.Attach(NodeId{0}, [&](Datagram&& d) {
    round_trips++;
    if (remaining > 0) {
      remaining--;
      const uint64_t op = d.payload.get<GetPageMiss>().op_id + 1;
      net.Send(Datagram{NodeId{0}, NodeId{1}, 64, kMsgGetPageReq,
                        GetPageReq{uid, NodeId{0}, op, {}}});
    }
  });
  auto run_trips = [&](uint64_t trips) {
    remaining = trips;
    net.Send(Datagram{NodeId{0}, NodeId{1}, 64, kMsgGetPageReq,
                      GetPageReq{uid, NodeId{0}, 1, {}}});
    sim.Run();
  };
  run_trips(4096);  // warm-up: CPU queues, gcd table buckets, net counters
  const AllocWindow window;
  const uint64_t before = round_trips;
  run_trips(4096);
  EXPECT_GE(round_trips - before, 4096u);
  EXPECT_GT(engine.stats().gcd_lookups, 8192u);  // the engine really ran
  EXPECT_EQ(window.allocs(), 0u)
      << "an engine receive->dispatch->handle trip allocated at steady state";
  EXPECT_EQ(window.frees(), 0u);
}

TEST(AllocTest, FrameTableChurnIsAllocationFree) {
  // Every fault and putpage runs Allocate/Free/Touch/set_dirty/PickVictim
  // on some node's frame table; its lists and uid index are sized at
  // construction, so a full table churning pages never touches the
  // allocator.
  FrameTable frames(64);
  SimTime now = 0;
  uint64_t next_page = 0;
  uint64_t evictions = 0;
  auto churn = [&](int ops) {
    for (int i = 0; i < ops; i++) {
      now += 10;
      const Uid uid = MakeAnonUid(NodeId{0}, 1, next_page++);
      if (frames.free_count() == 0) {
        Frame* victim = frames.PickVictim(now, 1.5, /*require_clean=*/true);
        if (victim == nullptr) {
          victim = frames.PickVictim(now, 1.5);
          victim->set_dirty(false);  // written back
        }
        frames.Free(victim);
        evictions++;
      }
      Frame* f = frames.Allocate(
          uid, i % 3 ? PageLocation::kLocal : PageLocation::kGlobal, now);
      f->set_dirty(i % 2 == 0);
      Frame* old = frames.Lookup(MakeAnonUid(NodeId{0}, 1, next_page / 2));
      if (old != nullptr) {
        frames.Touch(old, now);
      }
    }
  };
  churn(1024);  // warm-up: fill the table
  const AllocWindow window;
  churn(20000);
  EXPECT_GT(evictions, 20000u);
  EXPECT_EQ(window.allocs(), 0u)
      << "a frame-table operation allocated at steady state";
  EXPECT_EQ(window.frees(), 0u);
}

TEST(AllocTest, GhostCacheAccessNeverAllocates) {
  // Ghosts sit directly on the fault hot path of the ensemble policy: after
  // construction, Access/Contains/Frequency/set_capacity
  // must never touch the allocator — thrashing, hits, and mid-trace resizes
  // included.
  GhostCache lru(GhostKind::kLru, 256);
  GhostCache lfu(GhostKind::kLfu, 256);
  GhostCache mru(GhostKind::kMru, 256);
  const AllocWindow window;
  uint64_t hits = 0;
  for (uint64_t i = 0; i < 20000; i++) {
    const Uid uid = MakeAnonUid(NodeId{0}, 1, (i * 2654435761u) % 512);
    hits += lru.Access(uid) + lfu.Access(uid) + mru.Access(uid);
    if (i % 4096 == 0) {
      lru.set_capacity(static_cast<uint32_t>(64 + (i % 192)));
      lru.set_capacity(256);
    }
  }
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(window.allocs(), 0u)
      << "a ghost cache operation allocated after construction";
  EXPECT_EQ(window.frees(), 0u);
}

TEST(AllocTest, EnsembleLearningIsAllocationFreeAtSteadyState) {
  // The ensemble's per-fault work — three ghost accesses, the
  // multiplicative-weights update, normalization — is pure arithmetic over
  // preallocated state once OnStart has sized the ghosts.
  EnsembleConfig config;
  config.ghost_capacity = 256;
  EnsemblePolicy policy(/*seed=*/3, config);
  policy.OnStart();  // preallocates the ghosts
  for (uint64_t i = 0; i < 4096; i++) {  // warm-up
    policy.OnPageFault(MakeAnonUid(NodeId{0}, 1, i % 512));
  }
  const AllocWindow window;
  for (uint64_t i = 0; i < 8192; i++) {
    policy.OnPageFault(MakeAnonUid(NodeId{0}, 1, (i * 7) % 512));
    (void)policy.KeepVote(MakeAnonUid(NodeId{0}, 1, i % 512));
    (void)policy.Estimate(MakeAnonUid(NodeId{0}, 1, i % 512));
  }
  EXPECT_EQ(policy.references(), 12288u);
  EXPECT_EQ(window.allocs(), 0u)
      << "an ensemble fault update allocated at steady state";
  EXPECT_EQ(window.frees(), 0u);
}

TEST(AllocTest, EnsembleEngineDispatchIsAllocationFreeAtSteadyState) {
  // Same receive->dispatch->handle bar as the hybrid-LFU engine test, with
  // the ensemble policy plugged into the seam.
  Simulator sim;
  Network net(&sim, 2);
  Cpu cpu(&sim);
  FrameTable frames(16);
  EnsembleConfig config;
  config.ghost_capacity = 64;
  CacheEngine engine(&sim, &net, &cpu, &frames, NodeId{1}, EngineConfig{},
                     std::make_unique<EnsemblePolicy>(/*seed=*/1, config));
  engine.Start(std::make_shared<const PodTable>(
      Pod::Build(1, {NodeId{0}, NodeId{1}})));
  net.Attach(NodeId{1},
             [&engine](Datagram&& d) { engine.OnDatagram(std::move(d)); });
  uint64_t remaining = 0;
  uint64_t round_trips = 0;
  const Uid uid = MakeAnonUid(NodeId{0}, 1, 0);
  net.Attach(NodeId{0}, [&](Datagram&& d) {
    round_trips++;
    if (remaining > 0) {
      remaining--;
      const uint64_t op = d.payload.get<GetPageMiss>().op_id + 1;
      net.Send(Datagram{NodeId{0}, NodeId{1}, 64, kMsgGetPageReq,
                        GetPageReq{uid, NodeId{0}, op, {}}});
    }
  });
  auto run_trips = [&](uint64_t trips) {
    remaining = trips;
    net.Send(Datagram{NodeId{0}, NodeId{1}, 64, kMsgGetPageReq,
                      GetPageReq{uid, NodeId{0}, 1, {}}});
    sim.Run();
  };
  run_trips(4096);  // warm-up
  const AllocWindow window;
  const uint64_t before = round_trips;
  run_trips(4096);
  EXPECT_GE(round_trips - before, 4096u);
  EXPECT_EQ(window.allocs(), 0u)
      << "an ensemble engine trip allocated at steady state";
  EXPECT_EQ(window.frees(), 0u);
}

// Health sampling runs on the snapshot timer for the whole life of a
// monitored cluster, so it gets the hot-path bar too: after Bind() has
// preallocated the windows, rules, and the incident reservation, a Sample()
// pass — including samples that fire detectors and record incidents into
// the trace — must never touch the allocator.
TEST(AllocTest, HealthSamplingIsAllocationFreeAtSteadyState) {
  MetricsRegistry registry;
  struct FakeNode {
    uint64_t retries = 0;
    uint64_t dups = 0;
    uint64_t sent = 0;
    uint64_t received = 0;
    uint64_t attempts = 0;
    uint64_t hits = 0;
    uint64_t epoch = 0;
    LatencyHistogram hist;
  };
  FakeNode nodes[2];
  for (uint32_t i = 0; i < 2; i++) {
    FakeNode* m = &nodes[i];
    const std::string p = "node" + std::to_string(i) + "/svc/";
    registry.RegisterLatency(p + "getpage_hit_ns", [m] { return &m->hist; });
    registry.RegisterValue(p + "getpage_retries", [m] { return m->retries; });
    registry.RegisterValue(p + "control_retries", [m] { return m->retries; });
    registry.RegisterValue(p + "duplicate_msgs_dropped",
                           [m] { return m->dups; });
    registry.RegisterValue(p + "putpages_sent", [m] { return m->sent; });
    registry.RegisterValue(p + "putpages_received",
                           [m] { return m->received; });
    registry.RegisterValue(p + "getpage_attempts", [m] { return m->attempts; });
    registry.RegisterValue(p + "getpage_hits", [m] { return m->hits; });
    registry.RegisterValue(p + "epoch", [m] { return m->epoch; });
  }
  HealthConfig config;
  config.epoch_period = Seconds(1);
  HealthMonitor monitor(&registry, 2, config);
  Tracer tracer(/*num_nodes=*/2, /*ring_capacity=*/256);
  tracer.set_enabled(kTraceCompiledIn);
  monitor.set_tracer(&tracer);
  ASSERT_TRUE(monitor.Bind());

  SimTime now = 0;
  auto drive = [&](uint64_t ticks, uint64_t base) {
    for (uint64_t t = 0; t < ticks; t++) {
      const uint64_t i = base + t;
      for (FakeNode& m : nodes) {
        // Mostly healthy traffic with periodic pathologies so the incident
        // recording path itself is inside the measured window.
        for (int s = 0; s < 20; s++) {
          m.hist.Record(i % 97 == 0 ? Milliseconds(4) : Microseconds(120));
        }
        m.attempts += 40;
        m.hits += i % 89 == 0 ? 2 : 36;
        m.retries += i % 61 == 0 ? 80 : 1;
        m.dups += i % 73 == 0 ? 40 : 0;
        m.sent += i % 2 == 0 ? 40 : 0;
        m.received += i % 2 == 1 ? 40 : 0;
        if (i % 7 == 0) {
          m.epoch++;
        }
      }
      now += Milliseconds(100);
      monitor.Sample(now);
    }
  };
  drive(512, 0);  // warm-up: every window full, several incidents recorded
  ASSERT_GT(monitor.incidents().size(), 4u) << "pathologies never fired";
  const AllocWindow window;
  const uint64_t incidents_before = monitor.incidents().size();
  const uint64_t samples_before = monitor.samples();
  drive(2048, 512);
  EXPECT_EQ(monitor.samples() - samples_before, 2048u);
  EXPECT_GT(monitor.incidents().size(), incidents_before)
      << "the measured window must exercise the incident path";
  EXPECT_LT(monitor.incidents().size() + monitor.incidents_dropped(),
            static_cast<uint64_t>(config.max_incidents))
      << "saturated storage would make the push_back path vacuous";
  EXPECT_EQ(window.allocs(), 0u)
      << "a health Sample() pass allocated at steady state";
  EXPECT_EQ(window.frees(), 0u);
}

// Registering a node's metric family is one append of (prefix, schema,
// context), however many fields the schema has: the fields share the
// schema's names and readers, so nothing is allocated per field. The only
// allocations are the registry's two columns doubling (families, metric
// owners) and its prefix index rehashing, at most once each per
// registration and logarithmically often in all; "n<i>/" prefixes fit the
// small-string buffer.
struct FamilyAllocs {
  uint64_t total = 0;
  uint64_t max_one = 0;
};

FamilyAllocs MeasureFamilyRegistration(size_t fields, size_t families) {
  std::vector<MetricField> table;
  std::vector<std::string> suffixes(fields);
  for (size_t f = 0; f < fields; f++) {
    suffixes[f] = "field" + std::to_string(f);
    table.emplace_back(suffixes[f],
                       [](const void*) -> uint64_t { return 1; });
  }
  const MetricSchema schema(std::move(table));
  MetricsRegistry registry;
  FamilyAllocs out;
  for (size_t i = 0; i < families; i++) {
    std::string prefix = "n" + std::to_string(i) + "/";
    const AllocWindow window;
    EXPECT_TRUE(registry.RegisterFamily(std::move(prefix), schema, nullptr));
    out.total += window.allocs();
    out.max_one = std::max<uint64_t>(out.max_one, window.allocs());
  }
  EXPECT_EQ(registry.size(), fields * families);
  return out;
}

TEST(AllocTest, RegisteringAFamilyCostsTheSameAtAnySchemaWidth) {
  constexpr size_t kFamilies = 1000;
  const FamilyAllocs narrow = MeasureFamilyRegistration(1, kFamilies);
  const FamilyAllocs wide = MeasureFamilyRegistration(40, kFamilies);
  for (const FamilyAllocs& a : {narrow, wide}) {
    EXPECT_LE(a.max_one, 4u) << "a registration allocated per field";
    EXPECT_LE(a.total, 64u) << "registration is not amortized O(1)";
  }
  // 40x the metrics costs only the owner column's extra doublings.
  EXPECT_LE(wide.total, narrow.total + 6)
      << "1 field: " << narrow.total << " allocations for " << kFamilies
      << " families, 40 fields: " << wide.total;
}

// Per-node heap traffic of the epoch protocol on an idle fanout-16 tree: a
// node's share of a round must be O(fanout + log N), not O(N). Every O(N)
// buffer a node used to take per epoch (a sorted copy of the membership, a
// copy of the weight vector, an alias table) was one reserved allocation,
// so the allocation count per node stays flat either way; the bytes show
// the difference. Going from 250 to 2000 nodes adds one tree level (each
// node's sparse stat is copied once more on the way up), so bytes per node
// may grow by that level but not with N: O(N) per node would grow ~8x.
struct EpochAllocs {
  double allocs_per_node_epoch = 0;
  double bytes_per_node_epoch = 0;
};

// An idle GMS cluster of 16-frame nodes on a fanout-16 epoch tree with
// 200-400 ms epochs.
ClusterConfig IdleTreeConfig(uint32_t nodes) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.policy = PolicyKind::kGms;
  config.frames = 16;
  config.seed = 1;
  config.gms.epoch.t_min = Milliseconds(200);
  config.gms.epoch.t_max = Milliseconds(400);
  config.gms.epoch.summary_timeout = Milliseconds(100);
  config.gms.epoch.fanout = 16;
  return config;
}

EpochAllocs MeasureIdleTreeEpochs(uint32_t nodes) {
  Cluster cluster(IdleTreeConfig(nodes));
  cluster.Start();
  const GmsAgent& root = *cluster.gms_agent(NodeId{0});
  auto run_to_epoch = [&](uint64_t epoch) {
    while (root.epoch_view().epoch < epoch) {
      cluster.sim().RunFor(Milliseconds(1));
    }
  };
  constexpr uint64_t kWarmEpochs = 2;
  constexpr uint64_t kMeasuredEpochs = 4;
  run_to_epoch(kWarmEpochs);
  const AllocWindow window;
  run_to_epoch(kWarmEpochs + kMeasuredEpochs);
  const double node_epochs = static_cast<double>(nodes) * kMeasuredEpochs;
  return EpochAllocs{static_cast<double>(window.allocs()) / node_epochs,
                     static_cast<double>(window.bytes()) / node_epochs};
}

TEST(AllocTest, EpochHeapTrafficPerNodeDoesNotGrowWithClusterSize) {
  const EpochAllocs small = MeasureIdleTreeEpochs(250);
  const EpochAllocs large = MeasureIdleTreeEpochs(2000);
  EXPECT_LE(large.allocs_per_node_epoch, 1.25 * small.allocs_per_node_epoch)
      << "250 nodes: " << small.allocs_per_node_epoch
      << " allocations per node-epoch, 2000 nodes: "
      << large.allocs_per_node_epoch;
  EXPECT_LE(large.bytes_per_node_epoch, 2.0 * small.bytes_per_node_epoch)
      << "250 nodes: " << small.bytes_per_node_epoch
      << " bytes per node-epoch, 2000 nodes: " << large.bytes_per_node_epoch;
}

// The allocation count behind the relative bound above: at most 1.5 per
// idle node-epoch (1.39 at 250 nodes and 1.34 at 2000 measured; 3.7 at
// both before a round placed each node once). A leaf allocates one entry
// for its own stat, sized up front, and an aggregator one buffer for its
// subtree; the rest is the event queue's burst storage. A heap copy of a
// node's children per relay, a hash set rebuilt at every merge or a
// partial regrown by doubling would each add about one per node-epoch.
TEST(AllocTest, EpochAllocationsPerIdleNodeStayUnderBound) {
  for (uint32_t nodes : {250u, 2000u}) {
    const EpochAllocs a = MeasureIdleTreeEpochs(nodes);
    EXPECT_LE(a.allocs_per_node_epoch, 1.5)
        << nodes << " nodes: " << a.allocs_per_node_epoch
        << " allocations per node-epoch";
  }
}

// The absolute bound behind the relative one above: an idle node's share of
// an epoch round costs fewer heap bytes than one dense LogHistogram. A
// 16-frame node has a handful of nonzero age buckets, and every structure
// it sends up the tree (its sparse stat, the partial it folds into) is
// sized by those, not by the histogram's 192 buckets.
TEST(AllocTest, EpochHeapBytesPerIdleNodeStayUnderOneDenseHistogram) {
  for (uint32_t nodes : {250u, 2000u}) {
    const EpochAllocs a = MeasureIdleTreeEpochs(nodes);
    EXPECT_LE(a.bytes_per_node_epoch, static_cast<double>(sizeof(LogHistogram)))
        << nodes << " nodes: " << a.bytes_per_node_epoch
        << " heap bytes per node-epoch";
  }
}

// Construction pays for what a node holds, not for worst-case buffers: an
// idle node's latency histograms have no buckets until they record, and its
// epoch accumulators carry no dense histogram.
TEST(AllocTest, IdleClusterConstructionCostsUnderEightKiBPerNode) {
  constexpr uint32_t kNodes = 1000;
  const ClusterConfig config = IdleTreeConfig(kNodes);
  const AllocWindow window;
  const Cluster cluster(config);
  const double bytes_per_node =
      static_cast<double>(window.bytes()) / kNodes;
  EXPECT_LE(bytes_per_node, 8.0 * 1024)
      << bytes_per_node << " heap bytes per node to construct the cluster";
}

// A snapshot stores what changed since the previous one, not a dense row of
// every metric: on an idle cluster, where a node's epoch and traffic
// counters move and most of its 39 metrics stay at zero, a SnapshotEpoch
// costs at most a quarter of a dense row's 8 bytes per metric. The first
// snapshot (compared with zero, and sizing the registry's one dense row)
// is warm-up; the window covers only the SnapshotEpoch calls.
TEST(AllocTest, SnapshotHeapBytesScaleWithChangedValues) {
  for (uint32_t nodes : {250u, 1000u}) {
    Cluster cluster(IdleTreeConfig(nodes));
    cluster.Start();
    MetricsRegistry& metrics = cluster.metrics();
    auto snapshot = [&] {
      cluster.sim().RunFor(Milliseconds(250));
      const AllocWindow window;
      metrics.SnapshotEpoch(cluster.sim().now());
      return window.bytes();
    };
    snapshot();
    snapshot();
    constexpr int kMeasured = 8;
    uint64_t bytes = 0;
    for (int k = 0; k < kMeasured; k++) {
      bytes += snapshot();
    }
    const double per_snapshot = static_cast<double>(bytes) / kMeasured;
    const double dense_row = 8.0 * static_cast<double>(metrics.size());
    EXPECT_LE(per_snapshot, dense_row / 4)
        << nodes << " nodes: " << per_snapshot << " heap bytes per snapshot of "
        << metrics.size() << " metrics";
  }
}

TEST(AllocTest, CountersActuallyCount) {
  // Sanity-check the hook itself so a silent linker change (the override not
  // taking effect) cannot turn the suite into a vacuous pass.
  const AllocWindow window;
  int* p = new int(3);
  delete p;
  EXPECT_GE(window.allocs(), 1u);
  EXPECT_GE(window.bytes(), sizeof(int));
  EXPECT_GE(window.frees(), 1u);
}

}  // namespace
}  // namespace gms
