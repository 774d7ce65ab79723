// Figure 7: workload speedup as the cluster grows (5-20 nodes).
//
// Per the paper: in every group of five workstations, two are idle and the
// other three run OO7, Compile&Link, and Render respectively. The expected
// result is that each workload's speedup stays nearly constant as groups are
// added — GMS scales without cross-group interference.
#include <sys/resource.h>

#include <cstdio>
#include <map>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/cluster.h"
#include "src/cluster/sweep.h"
#include "src/common/table.h"
#include "src/workload/applications.h"

namespace gms {
namespace {

// Runs `groups` groups of (OO7, Compile&Link, Render, idle, idle) and
// returns the mean elapsed per app kind.
std::map<AppKind, double> RunGroups(uint32_t groups, PolicyKind policy,
                                    const PaperScale& s) {
  const AppKind kApps[3] = {AppKind::kOO7, AppKind::kCompileAndLink,
                            AppKind::kRender};
  ClusterConfig config = PaperConfig(policy, groups * 5, s);
  config.frames_per_node.assign(groups * 5, s.Frames());

  // Size the two idle nodes per group for the sum of the three workloads'
  // overflow beyond their own memory.
  uint64_t needed = 0;
  for (AppKind app : kApps) {
    AppSpec probe = MakeApp(app, NodeId{0}, NodeId{0}, s.scale, s.seed);
    if (probe.footprint_pages > s.Frames()) {
      needed += probe.footprint_pages - s.Frames();
    }
  }
  const uint32_t idle_frames = static_cast<uint32_t>(needed / 2) + 128;

  for (uint32_t g = 0; g < groups; g++) {
    config.frames_per_node[g * 5 + 3] = idle_frames;
    config.frames_per_node[g * 5 + 4] = idle_frames;
  }

  Cluster cluster(config);
  cluster.Start();
  std::map<AppKind, std::vector<WorkloadDriver*>> drivers;
  for (uint32_t g = 0; g < groups; g++) {
    for (int k = 0; k < 3; k++) {
      const NodeId node{g * 5 + static_cast<uint32_t>(k)};
      AppSpec spec = MakeApp(kApps[k], node, node, s.scale, s.seed + g);
      drivers[kApps[k]].push_back(
          &cluster.AddWorkload(node, std::move(spec.pattern), spec.name));
    }
  }
  cluster.StartWorkloads();
  if (!cluster.RunUntilWorkloadsDone()) {
    std::printf("WARNING: %u-node run did not complete\n", groups * 5);
  }
  std::map<AppKind, double> mean_elapsed;
  for (auto& [app, list] : drivers) {
    double sum = 0;
    for (auto* d : list) {
      sum += ToSeconds(d->elapsed());
    }
    mean_elapsed[app] = sum / static_cast<double>(list.size());
  }
  return mean_elapsed;
}

}  // namespace
}  // namespace gms

int main(int argc, char** argv) {
  using namespace gms;

  // Epoch scale-out mode (--scaleout_nodes=1000..10000): instead of the
  // figure's 5-20 node workload runs, size only the epoch machinery — an
  // idle N-node cluster, measuring the initiator's summary traffic and CPU
  // per round. With --epoch_fanout=flat the root absorbs N-1 summaries per
  // epoch; with a tree it absorbs ~fanout partials regardless of N
  // (EXPERIMENTS.md walks through the 10000-node case). The
  // epoch-scale-smoke CI job gates the JSON emitted by --emit_bench_json
  // through tools/check_bench_regression.py --max-epoch-root-cost and, at
  // 10000 nodes, --max-peak-rss-mb; the JSON's wall_s (host seconds, never
  // printed, so stdout stays deterministic) is what bench-smoke's
  // --max-wall-ratio compares between a change and its base.
  // --metrics_out=FILE snapshots the metrics registry every 250 ms of
  // simulated time and writes its JSON export to FILE.
  const auto scaleout_nodes =
      static_cast<uint32_t>(FlagValue(argc, argv, "scaleout_nodes", 0));
  if (scaleout_nodes > 0) {
    const uint32_t fanout = BenchEpochFanout(argc, argv, 16);
    const auto epochs =
        static_cast<uint64_t>(FlagValue(argc, argv, "epochs", 3));
    const EpochScaleoutResult r =
        RunEpochScaleout(scaleout_nodes, fanout, epochs,
                         FlagString(argc, argv, "metrics_out"));
    std::printf("=== Epoch scale-out: %u nodes, fanout %u (0 = flat) ===\n",
                r.nodes, r.fanout);
    std::printf("epochs completed:           %llu (%.2f sim-s)\n",
                static_cast<unsigned long long>(r.epochs), r.sim_s);
    std::printf("root summary msgs / epoch:  %.1f\n",
                r.root_summary_msgs_per_epoch);
    std::printf("root epoch CPU / epoch:     %.1f us\n",
                r.root_epoch_cpu_us_per_epoch);
    if (r.epochs == 0) {
      std::fprintf(stderr, "FAIL: no epoch completed\n");
      return 1;
    }
    const std::string json_out = FlagString(argc, argv, "emit_bench_json");
    if (!json_out.empty()) {
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      const double peak_rss_mb =
          static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
      std::FILE* f = std::fopen(json_out.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", json_out.c_str());
        return 1;
      }
      std::fprintf(
          f,
          "{\n  \"schema\": 2,\n  \"kind\": \"epoch_scaleout\",\n"
          "  \"nodes\": %u,\n  \"fanout\": %u,\n  \"epochs\": %llu,\n"
          "  \"root_summary_msgs_per_epoch\": %.3f,\n"
          "  \"root_epoch_cpu_us_per_epoch\": %.3f,\n  \"sim_s\": %.3f,\n"
          "  \"wall_s\": %.6f,\n  \"peak_rss_mb\": %.1f\n}\n",
          r.nodes, r.fanout, static_cast<unsigned long long>(r.epochs),
          r.root_summary_msgs_per_epoch, r.root_epoch_cpu_us_per_epoch,
          r.sim_s, r.wall_s, peak_rss_mb);
      std::fclose(f);
      std::printf("bench json -> %s\n", json_out.c_str());
    }
    return 0;
  }

  const PaperScale s = BenchScale(argc, argv);
  BenchHeader("Figure 7: speedup vs number of nodes (2/5 idle, 3 workloads)",
              s);

  const AppKind kApps[3] = {AppKind::kOO7, AppKind::kCompileAndLink,
                            AppKind::kRender};
  TablePrinter table({"Workload", "5 nodes", "10 nodes", "15 nodes",
                      "20 nodes"});
  // All 8 cluster sizes x policies are independent universes: sweep them
  // across the thread pool (--threads sizes it; one serial cluster per pool
  // thread). Point i = (groups i/2+1, policy i%2).
  auto runs = RunSweepParallel(8, SweepThreads(argc, argv), [&s](size_t i) {
    const auto groups = static_cast<uint32_t>(i / 2 + 1);
    const PolicyKind policy =
        i % 2 == 0 ? PolicyKind::kLocalLru : PolicyKind::kGms;
    return RunGroups(groups, policy, s);
  });
  std::map<AppKind, std::vector<double>> series;
  for (uint32_t groups = 1; groups <= 4; groups++) {
    auto& base = runs[(groups - 1) * 2];
    auto& gms_run = runs[(groups - 1) * 2 + 1];
    for (AppKind app : kApps) {
      series[app].push_back(gms_run[app] > 0 ? base[app] / gms_run[app] : 0);
    }
  }
  for (AppKind app : kApps) {
    table.AddNumericRow(AppName(app), series[app], 2);
  }
  table.Print(std::cout);
  std::printf("\nPaper: speedup remains nearly constant from 5 to 20 nodes\n"
              "(OO7 ~2.5-3, Render ~2-2.4, Compile&Link ~1.5).\n");
  return 0;
}
