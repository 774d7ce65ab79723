// Parallel chaos-soak sweep: the standard chaos scenario (4 nodes, fault
// injection, mid-run partition) across seeds x loss rates, one independent
// simulated cluster per worker thread. Every point is a full universe —
// build, run to completion, quiesce, check invariants — so wall time scales
// down nearly linearly with --threads while the per-point results (and the
// printed report, which is ordered by point index) stay byte-identical to a
// serial run.
//
// Flags:
//   --seeds=N       seeds per loss rate (default 10)
//   --threads=N     point-pool worker threads (default: hardware concurrency;
//                   1 = serial). One whole serial cluster per thread.
//   --policy=NAME   replacement policy (gms, nchance, local, ensemble;
//                   default gms). The cluster invariant checker asserts GMS
//                   protocol state, so other policies check
//                   completion/quiescence only.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/chaos_scenario.h"
#include "src/cluster/invariants.h"
#include "src/cluster/sweep.h"

namespace gms {
namespace {

constexpr double kLossRates[] = {0.0, 0.001, 0.01, 0.05};

struct SoakResult {
  ChaosCase chaos;
  bool completed = false;
  bool quiesced = false;
  bool invariants_ok = false;
  uint64_t accesses = 0;
  uint64_t retries = 0;
  uint64_t sim_events = 0;
  uint64_t dump_hash = 0;  // FNV-1a of the full deterministic stats dump
};

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h = (h ^ c) * 0x100000001b3ULL;
  }
  return h;
}

SoakResult RunSoakPoint(const ChaosCase& chaos) {
  SoakResult r;
  r.chaos = chaos;
  auto cluster = BuildChaosCluster(chaos);
  cluster->StartWorkloads();
  r.completed = cluster->RunUntilWorkloadsDone(Seconds(600));
  r.quiesced = cluster->RunUntilQuiescent(Seconds(30));
  // The invariant checker walks GMS directory/epoch state; for the other
  // policies this sweep is a completion/quiescence soak.
  r.invariants_ok = chaos.policy == PolicyKind::kGms
                        ? ClusterInvariantChecker::Check(*cluster).ok()
                        : true;
  r.accesses = cluster->totals().accesses;
  for (uint32_t i = 0; i < cluster->num_nodes(); i++) {
    const MemoryServiceStats& s = cluster->service(NodeId{i}).stats();
    r.retries += s.getpage_retries + s.control_retries;
  }
  r.sim_events = cluster->sim().events_processed();
  r.dump_hash = Fnv1a(ChaosStatsDump(*cluster));
  return r;
}

}  // namespace
}  // namespace gms

int main(int argc, char** argv) {
  using namespace gms;
  const auto seeds = static_cast<uint64_t>(FlagValue(argc, argv, "seeds", 10));
  const unsigned threads = SweepThreads(argc, argv);
  const PolicyKind policy = BenchPolicy(argc, argv);

  std::vector<ChaosCase> points;
  for (uint64_t seed = 1; seed <= seeds; seed++) {
    for (double loss : kLossRates) {
      points.push_back(ChaosCase{seed, loss, policy});
    }
  }
  std::printf("=== Chaos soak sweep [%s]: %zu points (%llu seeds x %zu loss "
              "rates), %u thread%s ===\n",
              PolicyName(policy), points.size(),
              static_cast<unsigned long long>(seeds), std::size(kLossRates),
              threads, threads == 1 ? "" : "s");

  const auto start = std::chrono::steady_clock::now();
  std::vector<SoakResult> results = RunSweepParallel(
      points.size(), threads,
      [&points](size_t i) { return RunSoakPoint(points[i]); });
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  uint64_t total_events = 0;
  size_t failures = 0;
  for (const SoakResult& r : results) {
    total_events += r.sim_events;
    const bool ok = r.completed && r.quiesced && r.invariants_ok;
    if (!ok) {
      failures++;
    }
    std::printf("seed=%-3llu loss=%.3f  accesses=%llu retries=%-5llu "
                "events=%-8llu dump=%016llx  %s\n",
                static_cast<unsigned long long>(r.chaos.seed), r.chaos.loss,
                static_cast<unsigned long long>(r.accesses),
                static_cast<unsigned long long>(r.retries),
                static_cast<unsigned long long>(r.sim_events),
                static_cast<unsigned long long>(r.dump_hash),
                ok ? "ok" : "FAIL");
  }
  std::printf("\n%zu/%zu points ok, %.2fs wall, %.1f points/s, "
              "%.2fM sim events/s aggregate\n",
              results.size() - failures, results.size(), wall,
              static_cast<double>(results.size()) / wall,
              static_cast<double>(total_events) / wall / 1e6);
  return failures == 0 ? 0 : 1;
}
