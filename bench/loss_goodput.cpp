// Goodput vs injected packet loss.
//
// Runs a fixed two-workload mix (one uniform-random, one sequential+Zipf
// interleave) on a 4-node cluster with the protocol retry layer enabled,
// while the network drops / duplicates / reorders / jitters traffic at
// increasing rates. Reported: wall-clock (simulated) completion time,
// goodput in accesses per simulated second, and the retry-layer work it
// took to get there. At 0%% loss the numbers match a fault-free run
// exactly; rising loss costs time and retries but never pages.
#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "src/cluster/cluster.h"
#include "src/common/table.h"
#include "src/workload/patterns.h"

namespace gms {
namespace {

struct LossResult {
  double seconds = 0;
  double goodput = 0;  // accesses / simulated second
  double hit_rate = 0;
  uint64_t retries = 0;
  uint64_t drops = 0;
};

// `health_out`, when non-empty, enables the health monitor for this point
// and writes its incident report there: rising loss should surface as
// retry_storm/dup_spike incidents while the 0% point stays clean.
LossResult RunAtLoss(double loss, const std::string& health_out = "",
                     const FarMemoryParams& far = {}) {
  ClusterConfig config;
  config.far = far;
  config.num_nodes = 4;
  config.policy = PolicyKind::kGms;
  config.frames_per_node = {256, 320, 1024, 768};
  config.frames = 256;
  config.seed = 7;
  config.obs.health = !health_out.empty();
  config.gms.epoch.t_min = Milliseconds(200);
  config.gms.epoch.t_max = Seconds(2);
  config.gms.epoch.m_min = 16;
  config.gms.epoch.summary_timeout = Milliseconds(100);
  config.gms.retry.enabled = true;
  config.gms.retry.max_attempts = 10;
  Cluster cluster(config);

  if (loss > 0) {
    Network& net = cluster.net();
    net.EnableFaultInjection(0x60047u);
    FaultSpec faults;
    faults.drop = loss;
    faults.duplicate = loss / 2;
    faults.reorder = loss / 2;
    faults.delay_jitter = Microseconds(500);
    net.SetDefaultFaults(faults);
  }

  cluster.Start();
  cluster.AddWorkload(
      NodeId{0},
      std::make_unique<UniformRandomPattern>(
          PageSet{MakeFileUid(NodeId{0}, 1, 0), 700}, 6000, Microseconds(40),
          /*write_fraction=*/0.1),
      "w0");
  cluster.AddWorkload(
      NodeId{1},
      std::make_unique<InterleavePattern>(
          std::make_unique<SequentialPattern>(
              PageSet{MakeAnonUid(NodeId{1}, 2, 0), 500}, 5000,
              Microseconds(40), 0.3),
          std::make_unique<ZipfPattern>(
              PageSet{MakeFileUid(NodeId{1}, 9, 0), 400}, 5000,
              Microseconds(40), 0.6),
          0.5),
      "w1");
  cluster.StartWorkloads();
  cluster.RunUntilWorkloadsDone(Seconds(600));

  LossResult r;
  const Cluster::Totals t = cluster.totals();
  r.seconds = ToMicroseconds(cluster.sim().now()) / 1e6;
  r.goodput = static_cast<double>(t.accesses) / r.seconds;
  uint64_t attempts = 0;
  uint64_t hits = 0;
  for (uint32_t i = 0; i < cluster.num_nodes(); i++) {
    const MemoryServiceStats& s = cluster.service(NodeId{i}).stats();
    attempts += s.getpage_attempts;
    hits += s.getpage_hits;
    r.retries += s.getpage_retries + s.control_retries;
  }
  r.hit_rate = attempts > 0 ? 100.0 * static_cast<double>(hits) /
                                  static_cast<double>(attempts)
                            : 0;
  r.drops = cluster.net().fault_stats().drops_total().events;
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
  return r;
}

}  // namespace
}  // namespace gms

int main(int argc, char** argv) {
  using namespace gms;
  FarMemoryParams far;
  ParseTierFlags(argc, argv, &far);
  // --health_out=PREFIX: each point writes PREFIX_l<loss pct x10>.json.
  const std::string health_prefix = FlagString(argc, argv, "health_out");
  std::printf("Goodput vs injected loss (4 nodes, retries on, 16k accesses)\n\n");
  TablePrinter table({"Loss", "Run (s)", "Accesses/s", "Getpage hit %",
                      "Retries", "Drops"});
  for (double loss : {0.0, 0.001, 0.01, 0.05}) {
    const std::string health_out =
        health_prefix.empty()
            ? std::string()
            : health_prefix + "_l" +
                  std::to_string(static_cast<int>(loss * 1000)) + ".json";
    LossResult r = RunAtLoss(loss, health_out, far);
    char label[32];
    std::snprintf(label, sizeof(label), "%.1f%%", loss * 100);
    table.AddNumericRow(label,
                        {r.seconds, r.goodput, r.hit_rate,
                         static_cast<double>(r.retries),
                         static_cast<double>(r.drops)},
                        1);
    std::fflush(stdout);
  }
  table.Print(std::cout);
  std::printf("\nThe retry layer converts loss into latency: completion time\n"
              "stretches with drop rate while every access still completes.\n");
  return 0;
}
