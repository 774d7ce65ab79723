// Ablation study: which of GMS's design choices matter, and how much?
//
// The scenario is the paper's hardest case (Figure 9, 25% skew: two of
// eight peers hold 75% of the idle memory; idle memory is exactly what OO7
// needs). Variants:
//
//   full            the algorithm as shipped
//   no-age-boost    global pages' ages not boosted (section 3.1's tweak off)
//   slow-epochs     epoch duration pinned to 20 s: stale weights and MinAge
//   tight-budget    no headroom on M: weights exhaust mid-epoch
//
// Expected: the full algorithm wins; slow epochs hurt most (the algorithm's
// core claim is that *fresh, global* age information is what finds skewed
// idle memory); the boost and headroom are second-order.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/cluster/cluster.h"
#include "src/common/table.h"
#include "src/workload/applications.h"

namespace gms {
namespace {

struct Variant {
  const char* name;
  GmsConfig config;
};

double RunVariant(const GmsConfig* gms, PolicyKind policy,
                  const PaperScale& s) {
  AppSpec probe = MakeOO7(NodeId{0}, s.scale);
  const uint64_t needed = probe.footprint_pages > s.Frames()
                              ? probe.footprint_pages - s.Frames() + 64
                              : 64;
  constexpr uint32_t kPeers = 8;
  ClusterConfig config = PaperConfig(policy, 1 + kPeers, s);
  if (gms != nullptr) {
    config.gms = *gms;
  }
  config.frames_per_node.assign(1 + kPeers, 0);
  config.frames_per_node[0] = s.Frames();
  // 25% skew: peers 1-2 hold 75% of the idle memory.
  const uint64_t rich_share = needed * 3 / 8;  // x2 nodes = 75%
  const uint64_t poor_share = needed / 24;     // x6 nodes = 25%
  for (uint32_t i = 1; i <= kPeers; i++) {
    const uint64_t share = i <= 2 ? rich_share : poor_share;
    config.frames_per_node[i] = static_cast<uint32_t>(share * 33 / 32 + 16);
  }
  Cluster cluster(config);
  cluster.Start();
  AppSpec app = MakeOO7(NodeId{0}, s.scale);
  WorkloadDriver& w =
      cluster.AddWorkload(NodeId{0}, std::move(app.pattern), app.name);
  w.Start();
  if (!cluster.RunUntilWorkloadsDone()) {
    std::printf("WARNING: variant did not complete\n");
  }
  return ToSeconds(w.elapsed());
}

}  // namespace
}  // namespace gms

int main(int argc, char** argv) {
  using namespace gms;
  PaperScale s = BenchScale(argc, argv);
  BenchHeader("Ablation: GMS design choices under 25% idleness skew", s);

  Variant variants[4];
  variants[0].name = "full GMS";
  variants[1].name = "no age boost";
  variants[1].config.epoch.global_age_boost = 1.0;
  variants[2].name = "slow epochs (20s)";
  variants[2].config.epoch.t_min = Seconds(20);
  variants[2].config.epoch.t_max = Seconds(20);
  variants[3].name = "tight budget (no headroom)";
  variants[3].config.epoch.budget_headroom = 0.2;

  const double baseline = RunVariant(nullptr, PolicyKind::kLocalLru, s);
  TablePrinter table({"Variant", "OO7 elapsed (s)", "Speedup vs native"});
  table.AddNumericRow("native (no GMS)", {baseline, 1.0}, 2);
  for (const Variant& v : variants) {
    const double t = RunVariant(&v.config, PolicyKind::kGms, s);
    table.AddNumericRow(v.name, {t, baseline / t}, 2);
    std::fflush(stdout);
  }
  table.Print(std::cout);
  std::printf("\nInterpretation: fresh epoch information is what lets GMS\n"
              "find skewed idle memory; stale weights approach N-chance's\n"
              "behaviour. The age boost and budget headroom are refinements.\n");
  return 0;
}
