// Figure 8: responsiveness to load changes.
//
// Nine nodes: one runs OO7; the eight peers each hold a filler program whose
// working set fills most of their memory. Four fillers run ("non-idle"
// nodes) and four are paused ("idle" nodes — their aged pages are the idle
// memory, 150% of OO7's need). Every X seconds an idle node swaps roles with
// a non-idle node: the resumed filler reclaims its memory (displacing global
// pages) while the paused node's pages begin to age. The paper: speedup 1.9
// even at 1-second swaps, recovering to ~2.2-2.4 at 20-30 s.
#include <cstdio>
#include <functional>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/cluster.h"
#include "src/common/table.h"
#include "src/core/directory.h"
#include "src/workload/applications.h"
#include "src/workload/patterns.h"

namespace gms {
namespace {

// `health_out`, when non-empty, enables the online health monitor for the
// run and writes its incident report there — the donor-flap detector sees
// the role swaps directly (EXPERIMENTS.md, "Diagnosing a load-change flap").
double RunWithSwaps(PolicyKind policy, SimTime interval, const PaperScale& s,
                    const std::string& health_out = "") {
  constexpr uint32_t kPeers = 8;
  AppSpec probe = MakeOO7(NodeId{0}, s.scale);
  const uint64_t needed =
      probe.footprint_pages > s.Frames() ? probe.footprint_pages - s.Frames() + 64
                                         : 64;
  // Idle memory = 150% of need, held as the aged pages of 4 paused fillers.
  const uint32_t filler_ws = static_cast<uint32_t>(needed * 3 / 2 / 4);

  ClusterConfig config = PaperConfig(policy, 1 + kPeers, s);
  config.frames_per_node.assign(1 + kPeers, s.Frames());
  for (uint32_t i = 1; i <= kPeers; i++) {
    config.frames_per_node[i] = filler_ws + 64;
  }
  config.obs.health = !health_out.empty();

  Cluster cluster(config);
  cluster.Start();

  std::vector<WorkloadDriver*> fillers;
  for (uint32_t i = 1; i <= kPeers; i++) {
    auto loop = std::make_unique<SequentialPattern>(
        PageSet{MakeAnonUid(NodeId{i}, 11, 0), filler_ws}, UINT64_MAX / 2,
        Microseconds(250));
    fillers.push_back(&cluster.AddWorkload(NodeId{i}, std::move(loop),
                                           "filler-" + std::to_string(i)));
  }
  // Start all fillers, then pause half: their memory becomes idle.
  for (auto* f : fillers) {
    f->Start();
  }
  cluster.sim().RunFor(Seconds(5));  // fillers populate their working sets
  for (uint32_t k = 0; k < kPeers / 2; k++) {
    fillers[k]->Pause();
  }
  cluster.sim().RunFor(Seconds(5));  // paused pages age into idleness

  // Role-swap controller: a round-robin pair swaps every `interval`.
  auto* sim = &cluster.sim();
  uint32_t next = 0;
  std::function<void()> swap = [&]() {
    // Pause a running filler, resume a paused one.
    const uint32_t idle = next % (kPeers / 2);
    const uint32_t busy = kPeers / 2 + idle;
    if (fillers[idle]->paused()) {
      fillers[idle]->Resume();
      fillers[busy]->Pause();
    } else {
      fillers[idle]->Pause();
      fillers[busy]->Resume();
    }
    next++;
    sim->After(interval, swap);
  };
  sim->After(interval, swap);

  AppSpec oo7 = MakeOO7(NodeId{0}, s.scale);
  WorkloadDriver& w =
      cluster.AddWorkload(NodeId{0}, std::move(oo7.pattern), oo7.name);
  w.Start();
  // The fillers never finish; wait on OO7 alone.
  const SimTime deadline = cluster.sim().now() + Seconds(7200);
  while (!w.finished() && cluster.sim().now() < deadline) {
    cluster.sim().RunFor(Milliseconds(200));
  }
  if (!w.finished()) {
    std::printf("WARNING: OO7 did not finish (interval %s)\n",
                FormatTime(interval).c_str());
  }
  for (auto* f : fillers) {
    f->Stop();
    f->Resume();  // let stopped drivers unwind
  }
  if (const HealthMonitor* health = cluster.health()) {
    if (std::FILE* f = std::fopen(health_out.c_str(), "w")) {
      const std::string json = health->ToJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("health -> %s (%zu incidents)\n", health_out.c_str(),
                  health->incidents().size());
    } else {
      std::fprintf(stderr, "cannot open %s\n", health_out.c_str());
    }
  }
  return ToSeconds(w.elapsed());
}

}  // namespace
}  // namespace gms

int main(int argc, char** argv) {
  using namespace gms;
  PaperScale s = BenchScale(argc, argv);
  BenchHeader("Figure 8: OO7 speedup vs load-redistribution interval", s);

  // --health_out=PREFIX: each GMS point writes PREFIX_i<interval>.json.
  const std::string health_prefix = FlagString(argc, argv, "health_out");
  const double baseline = RunWithSwaps(PolicyKind::kLocalLru, Seconds(30), s);
  const int intervals[] = {1, 2, 5, 10, 20, 30};
  TablePrinter table({"Swap interval (s)", "OO7 speedup"});
  for (int x : intervals) {
    const std::string health_out =
        health_prefix.empty()
            ? std::string()
            : health_prefix + "_i" + std::to_string(x) + ".json";
    const double t = RunWithSwaps(PolicyKind::kGms, Seconds(x), s, health_out);
    table.AddNumericRow(std::to_string(x), {t > 0 ? baseline / t : 0}, 2);
    std::fflush(stdout);
  }
  table.Print(std::cout);
  std::printf("\nPaper: ~1.9 at 1 s swaps, rising to ~2.2-2.4 by 20-30 s\n"
              "(only ~4%% below the undisturbed speedup).\n");
  return 0;
}
