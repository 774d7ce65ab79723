// Micro-operation benchmarks (google-benchmark): the hot paths of the GMS
// implementation itself — event queue, message delivery, frame table,
// directories, epoch math, and the samplers the eviction targeting depends
// on.
//
// Besides the usual google-benchmark CLI, `--emit_bench_json[=path]` runs a
// fixed headline subset (event loop, message round-trip, end-to-end getpage)
// with hand-rolled timing loops and writes a machine-readable BENCH_core.json
// (items/sec, ns/item, wall seconds per bench, peak RSS). CI's bench-smoke
// job diffs that file against the committed baseline via
// tools/check_bench_regression.py; see DESIGN.md "Performance model".
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/cluster.h"
#include "src/cluster/experiments.h"
#include "src/obs/trace.h"
#include "src/common/alias.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/core/directory.h"
#include "src/core/epoch.h"
#include "src/mem/frame_table.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"
#include "src/workload/patterns.h"

namespace gms {
namespace {

void BM_EventQueuePushPop(benchmark::State& state) {
  Simulator sim;
  Rng rng(1);
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int i = 0; i < batch; i++) {
      sim.After(static_cast<SimTime>(rng.NextBelow(1000000)), [] {});
    }
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(64)->Arg(1024)->Arg(16384);

// Timer churn: half the timers are cancelled before firing, exercising the
// cancelled-set fast path that protocol retries lean on.
void BM_TimerScheduleCancel(benchmark::State& state) {
  Simulator sim;
  Rng rng(8);
  const int batch = 1024;
  for (auto _ : state) {
    for (int i = 0; i < batch; i++) {
      const TimerId id = sim.ScheduleTimer(
          static_cast<SimTime>(rng.NextBelow(100000)), [] {});
      if ((i & 1) != 0) {
        sim.CancelTimer(id);
      }
    }
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_TimerScheduleCancel);

// One round trip = a control-sized datagram to a peer plus its reply: two
// sends, two delivery events, two variant payload visits. This is the
// skeleton of every getpage/putpage/control exchange.
void BM_MessageRoundTrip(benchmark::State& state) {
  Simulator sim;
  Network net(&sim, 2);
  int remaining = 0;
  net.Attach(NodeId{1}, [&net](Datagram d) {
    const auto& miss = d.payload.get<GetPageMiss>();
    net.Send(Datagram{NodeId{1}, NodeId{0}, 64, 2,
                      GetPageMiss{miss.uid, miss.op_id + 1}});
  });
  net.Attach(NodeId{0}, [&net, &remaining](Datagram d) {
    if (--remaining > 0) {
      const auto& miss = d.payload.get<GetPageMiss>();
      net.Send(Datagram{NodeId{0}, NodeId{1}, 64, 1,
                        GetPageMiss{miss.uid, miss.op_id + 1}});
    }
  });
  const Uid uid = MakeUid(0x0a000001, 1, 42, 7);
  const int batch = 1024;
  for (auto _ : state) {
    remaining = batch;
    net.Send(Datagram{NodeId{0}, NodeId{1}, 64, 1, GetPageMiss{uid, 1}});
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_MessageRoundTrip);

void BM_HashUid(benchmark::State& state) {
  Uid uid = MakeUid(0x0a000001, 1, 42, 0);
  uint64_t sink = 0;
  for (auto _ : state) {
    uid.lo++;
    sink += HashUid(uid);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_HashUid);

void BM_FrameTableLookupTouch(benchmark::State& state) {
  const uint32_t frames = static_cast<uint32_t>(state.range(0));
  FrameTable table(frames);
  for (uint32_t i = 0; i < frames; i++) {
    table.Allocate(MakeUid(1, 0, 1, i), PageLocation::kLocal,
                   static_cast<SimTime>(i));
  }
  Rng rng(2);
  SimTime now = frames;
  for (auto _ : state) {
    Frame* f = table.Lookup(
        MakeUid(1, 0, 1, static_cast<uint32_t>(rng.NextBelow(frames))));
    table.Touch(f, now++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrameTableLookupTouch)->Arg(1024)->Arg(8192);

void BM_FrameTablePickVictim(benchmark::State& state) {
  FrameTable table(8192);
  for (uint32_t i = 0; i < 8192; i++) {
    table.Allocate(MakeUid(1, 0, 1, i),
                   i % 4 == 0 ? PageLocation::kGlobal : PageLocation::kLocal,
                   static_cast<SimTime>(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.PickVictim(10000, 1.5));
  }
}
BENCHMARK(BM_FrameTablePickVictim);

void BM_GcdApplyAndPick(benchmark::State& state) {
  GcdTable gcd;
  Rng rng(3);
  uint32_t i = 0;
  for (auto _ : state) {
    const Uid uid = MakeFileUid(NodeId{1}, 7, i % 65536);
    gcd.Apply(GcdUpdate{uid, GcdUpdate::kAdd, NodeId{i % 8}, (i & 1) != 0});
    benchmark::DoNotOptimize(gcd.Pick(uid, NodeId{0}));
    i++;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GcdApplyAndPick);

void BM_PodGcdNodeFor(benchmark::State& state) {
  Pod pod;
  std::vector<NodeId> live;
  for (uint32_t i = 0; i < 20; i++) {
    live.push_back(NodeId{i});
  }
  pod.Adopt(Pod::Build(1, live));
  uint32_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pod.GcdNodeFor(MakeFileUid(NodeId{3}, 9, off++)));
  }
}
BENCHMARK(BM_PodGcdNodeFor);

void BM_AliasSample(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> weights(n);
  Rng rng(4);
  for (auto& w : weights) {
    w = static_cast<double>(rng.NextBelow(1000));
  }
  AliasSampler sampler(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(rng));
  }
}
BENCHMARK(BM_AliasSample)->Arg(8)->Arg(100);

void BM_LogHistogramAdd(benchmark::State& state) {
  LogHistogram hist;
  Rng rng(5);
  for (auto _ : state) {
    hist.Add(rng.NextBelow(1ULL << 40));
  }
  benchmark::DoNotOptimize(hist.total());
}
BENCHMARK(BM_LogHistogramAdd);

void BM_ComputeEpochPlan(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  EpochConfig config;
  Rng rng(6);
  std::vector<EpochSummary> summaries(n);
  for (uint32_t i = 0; i < n; i++) {
    summaries[i].node = NodeId{i};
    summaries[i].evictions = 100;
    for (int p = 0; p < 8192; p++) {
      summaries[i].ages.Add(rng.NextBelow(1ULL << 36));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeEpochPlan(config, 1, n, summaries, Seconds(5), NodeId{0}));
  }
}
BENCHMARK(BM_ComputeEpochPlan)->Arg(8)->Arg(100);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(1 << 20, 0.7);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

// --- --emit_bench_json: headline metrics for the CI regression gate ---

struct HeadlineResult {
  uint64_t items = 0;
  double wall_s = 0;
};

double WallSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Raw event throughput: the BM_EventQueuePushPop/1024 loop, fixed item count.
HeadlineResult MeasureEventLoop(double scale) {
  Simulator sim;
  Rng rng(1);
  const int batch = 1024;
  // Floor of ~1M timed events: below that the measurement window is a few
  // milliseconds and scheduler noise swamps the signal.
  const auto rounds =
      static_cast<uint64_t>(4000 * scale) > 1000
          ? static_cast<uint64_t>(4000 * scale)
          : 1000;
  // Untimed warm-up: let the calendar queue reach its steady-state bucket
  // count and width so small --scale runs measure the same regime as large
  // ones (and stay comparable to the committed baseline).
  for (uint64_t r = 0; r < 100; r++) {
    for (int i = 0; i < batch; i++) {
      sim.After(static_cast<SimTime>(rng.NextBelow(1000000)), [] {});
    }
    sim.Run();
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (uint64_t r = 0; r < rounds; r++) {
    for (int i = 0; i < batch; i++) {
      sim.After(static_cast<SimTime>(rng.NextBelow(1000000)), [] {});
    }
    sim.Run();
  }
  return {rounds * batch, WallSince(t0)};
}

// Message round trips: the BM_MessageRoundTrip ping-pong, fixed trip count.
HeadlineResult MeasureRoundTrip(double scale) {
  Simulator sim;
  Network net(&sim, 2);
  uint64_t remaining = 0;
  net.Attach(NodeId{1}, [&net](Datagram d) {
    const auto& miss = d.payload.get<GetPageMiss>();
    net.Send(Datagram{NodeId{1}, NodeId{0}, 64, 2,
                      GetPageMiss{miss.uid, miss.op_id + 1}});
  });
  net.Attach(NodeId{0}, [&net, &remaining](Datagram d) {
    if (--remaining > 0) {
      const auto& miss = d.payload.get<GetPageMiss>();
      net.Send(Datagram{NodeId{0}, NodeId{1}, 64, 1,
                        GetPageMiss{miss.uid, miss.op_id + 1}});
    }
  });
  const Uid uid = MakeUid(0x0a000001, 1, 42, 7);
  // Same ~40 ms measurement floor as the event loop.
  const auto trips = static_cast<uint64_t>(2000000 * scale) > 500000
                         ? static_cast<uint64_t>(2000000 * scale)
                         : 500000;
  // Untimed warm-up (see MeasureEventLoop).
  remaining = 50000;
  net.Send(Datagram{NodeId{0}, NodeId{1}, 64, 1, GetPageMiss{uid, 1}});
  sim.Run();
  remaining = trips;
  const auto t0 = std::chrono::steady_clock::now();
  net.Send(Datagram{NodeId{0}, NodeId{1}, 64, 1, GetPageMiss{uid, 1}});
  sim.Run();
  return {trips, WallSince(t0)};
}

// End-to-end getpage host cost: a 2-node cluster where node 0's working set
// overflows its memory into idle node 1, so most accesses ride the full
// fault -> GCD -> getpage -> reply path. ns/item here is host nanoseconds
// per *getpage attempt*, the figure DESIGN.md's performance model budgets.
HeadlineResult MeasureGetPage(double scale,
                              PolicyKind policy = PolicyKind::kGms,
                              const FarMemoryParams& far = {}) {
  ClusterConfig config;
  config.far = far;
  config.num_nodes = 2;
  config.policy = policy;
  config.frames_per_node = {128, 2048};
  config.frames = 128;
  config.seed = 1;
  const auto ops = static_cast<uint64_t>(40000 * scale) > 1000
                       ? static_cast<uint64_t>(40000 * scale)
                       : 1000;
  Cluster cluster(config);
  cluster.Start();
  cluster.AddWorkload(
      NodeId{0},
      std::make_unique<UniformRandomPattern>(
          PageSet{MakeFileUid(NodeId{0}, 1, 0), 700}, ops, Microseconds(40),
          /*write_fraction=*/0.1),
      "gp");
  cluster.StartWorkloads();
  const auto t0 = std::chrono::steady_clock::now();
  cluster.RunUntilWorkloadsDone(Seconds(3600));
  const double wall = WallSince(t0);
  return {cluster.service(NodeId{0}).stats().getpage_attempts, wall};
}

void WriteBench(std::FILE* f, const char* name, const HeadlineResult& r,
                bool last) {
  const double per_sec = r.wall_s > 0 ? static_cast<double>(r.items) / r.wall_s : 0;
  const double ns = r.items > 0 ? r.wall_s * 1e9 / static_cast<double>(r.items) : 0;
  std::fprintf(f,
               "    \"%s\": {\"items\": %llu, \"wall_s\": %.6f, "
               "\"items_per_sec\": %.1f, \"ns_per_item\": %.2f}%s\n",
               name, static_cast<unsigned long long>(r.items), r.wall_s,
               per_sec, ns, last ? "" : ",");
}

int EmitBenchJson(const std::string& path, double scale, PolicyKind policy,
                  const FarMemoryParams& far = {}) {
  const HeadlineResult ev = MeasureEventLoop(scale);
  const HeadlineResult rt = MeasureRoundTrip(scale);
  const HeadlineResult gp = MeasureGetPage(scale, policy, far);

  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"schema\": 1,\n  \"scale\": %g,\n", scale);
  // Whether TraceEvent call sites exist in this build (GMS_TRACE). The
  // regression gate uses this to verify the tracing-disabled configuration
  // really was compiled out before holding it to the tight headline limit.
  std::fprintf(f, "  \"trace_compiled_in\": %s,\n",
               kTraceCompiledIn ? "true" : "false");
  std::fprintf(f, "  \"benches\": {\n");
  WriteBench(f, "event_loop", ev, false);
  WriteBench(f, "message_round_trip", rt, false);
  WriteBench(f, "getpage", gp, true);
  std::fprintf(f, "  },\n");
  // Headline scalar the regression gate keys on.
  std::fprintf(f, "  \"events_per_sec\": %.1f,\n",
               ev.wall_s > 0 ? static_cast<double>(ev.items) / ev.wall_s : 0);
  std::fprintf(f, "  \"peak_rss_kb\": %ld,\n", ru.ru_maxrss);
  std::fprintf(f, "  \"wall_s_total\": %.6f\n}\n",
               ev.wall_s + rt.wall_s + gp.wall_s);
  std::fclose(f);
  std::printf("event_loop        %10.2fM items/s  (%.1f ns/item)\n",
              ev.items / ev.wall_s / 1e6, ev.wall_s * 1e9 / ev.items);
  std::printf("message_roundtrip %10.2fM trips/s  (%.1f ns/trip)\n",
              rt.items / rt.wall_s / 1e6, rt.wall_s * 1e9 / rt.items);
  std::printf("getpage           %10.2fK ops/s    (%.0f ns/getpage)\n",
              gp.items / gp.wall_s / 1e3, gp.wall_s * 1e9 / gp.items);
  std::printf("peak_rss_kb=%ld -> %s\n", ru.ru_maxrss, path.c_str());
  return 0;
}

}  // namespace
}  // namespace gms

int main(int argc, char** argv) {
  std::string json_path;
  bool emit = false;
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], "--emit_bench_json", 17) == 0) {
      emit = true;
      json_path = argv[i][17] == '=' ? argv[i] + 18 : "BENCH_core.json";
    }
  }
  if (emit) {
    const double scale = gms::FlagValue(argc, argv, "scale", 1.0);
    // --policy swaps the replacement policy under the end-to-end getpage
    // headline; the event-loop and round-trip numbers are policy-free, so
    // comparing two runs isolates the policy's (and the virtual dispatch
    // seam's) host cost.
    gms::FarMemoryParams far;
    gms::ParseTierFlags(argc, argv, &far);
    return gms::EmitBenchJson(json_path, scale, gms::BenchPolicy(argc, argv),
                              far);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
