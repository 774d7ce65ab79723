// Head-to-head policy comparison on a skewed cluster: every replacement
// policy the registry knows, on the identical engine and workload — GMS's
// global knowledge, N-chance's random forwarding, the regret-weighted expert
// ensemble, and the local-LRU baseline with no cluster memory at all.
//
// Two of six peers hold nearly all the idle memory (the paper's hardest
// case for N-chance). The same OO7-style workload runs under each policy;
// we report completion time, where faults were served, and the network
// bytes each policy spent.
//
// This is the single-workload teaser; bench/policy_tournament sweeps the
// same policies across seven scenarios (including the phase-change case
// where the ensemble's online learning beats every fixed heuristic) and
// emits the full league table as JSON.
#include <cstdio>
#include <memory>

#include "src/cluster/cluster.h"
#include "src/core/directory.h"
#include "src/workload/applications.h"

namespace {

struct Outcome {
  double elapsed_s = 0;
  unsigned long long cluster_hits = 0;
  unsigned long long disk_reads = 0;
  double network_mb = 0;
};

Outcome RunPolicy(gms::PolicyKind policy) {
  using namespace gms;
  ClusterConfig config;
  config.num_nodes = 7;
  config.policy = policy;
  // Worker + 2 rich idle nodes + 4 nearly-empty ones.
  config.frames_per_node = {2048, 2300, 2300, 80, 80, 80, 80};
  config.seed = 5;
  Cluster cluster(config);
  cluster.Start();

  AppSpec app = MakeOO7(NodeId{0}, /*scale=*/0.25);
  WorkloadDriver& w =
      cluster.AddWorkload(NodeId{0}, std::move(app.pattern), app.name);
  w.Start();
  cluster.RunUntilWorkloadsDone();

  Outcome out;
  out.elapsed_s = ToSeconds(w.elapsed());
  out.cluster_hits = cluster.service(NodeId{0}).stats().getpage_hits;
  out.disk_reads = cluster.node_os(NodeId{0}).stats().disk_reads;
  out.network_mb =
      static_cast<double>(cluster.net().total_traffic().bytes) / (1 << 20);
  return out;
}

}  // namespace

int main() {
  using gms::PolicyKind;
  struct {
    const char* name;
    PolicyKind policy;
  } policies[] = {
      {"local (no cluster memory)", PolicyKind::kLocalLru},
      {"N-chance forwarding", PolicyKind::kNchance},
      {"expert ensemble (learned)", PolicyKind::kEnsemble},
      {"GMS (this paper)", PolicyKind::kGms},
  };
  std::printf("%-28s %10s %14s %10s %12s\n", "policy", "elapsed", "cluster hits",
              "disk", "network MB");
  double baseline = 0;
  for (const auto& p : policies) {
    const Outcome o = RunPolicy(p.policy);
    if (baseline == 0) {
      baseline = o.elapsed_s;
    }
    std::printf("%-28s %8.1fs %14llu %10llu %12.1f   (speedup %.2fx)\n",
                p.name, o.elapsed_s, o.cluster_hits, o.disk_reads,
                o.network_mb, baseline / o.elapsed_s);
  }
  std::printf("\nWith 2 of 6 peers holding the idle memory, GMS's weighted\n"
              "targeting finds it; N-chance's random forwarding mostly\n"
              "bounces off the empty nodes (paper, Figure 9). The ensemble\n"
              "learns which pages are worth the wire but still forwards\n"
              "blind; on THIS workload global knowledge wins — run\n"
              "bench/policy_tournament for the phase-change scenario where\n"
              "the learner takes the lead.\n");
  return 0;
}
