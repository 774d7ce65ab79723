// Table 5: epoch bookkeeping overhead as a function of cluster size.
//
// Each node is populated with 8192 local and 2000 global pages (the paper's
// assumption: 64 MB of local memory, 2000 global pages scanned). One epoch
// is run and measured: initiator-side CPU, per-node gather CPU, and network
// traffic per protocol step. Traffic is also normalized to a worst-case
// 2-second epoch as in the paper.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/cluster/cluster.h"
#include "src/common/table.h"
#include "src/core/directory.h"
#include "src/core/messages.h"

namespace gms {
namespace {

struct EpochCost {
  double initiator_cpu_us = 0;
  double gather_cpu_us = 0;  // per non-initiator node
  double request_bytes = 0;
  double summary_bytes = 0;
  double params_bytes = 0;
};

EpochCost MeasureEpoch(uint32_t n, const PaperScale& s) {
  ClusterConfig config;
  config.num_nodes = n;
  config.policy = PolicyKind::kGms;
  config.frames = 8192 + 2048 + 64;
  config.seed = s.seed;
  config.far = s.far;
  // One epoch only inside the measurement window.
  config.gms.epoch.t_min = Seconds(60);
  config.gms.epoch.t_max = Seconds(120);
  // Populate before anything runs.
  config.gms.first_epoch_delay = Milliseconds(100);

  Cluster cluster(config);
  cluster.Start();

  // 8192 local + 2000 global pages per node, oldest-first so the ordered
  // insert in AllocateWithAge is O(1).
  for (uint32_t i = 0; i < n; i++) {
    FrameTable& frames = cluster.frames(NodeId{i});
    const SimTime now = cluster.sim().now();
    for (uint32_t p = 0; p < 8192; p++) {
      frames.AllocateWithAge(MakeAnonUid(NodeId{i}, 1, p),
                             PageLocation::kLocal,
                             now - Seconds(600) + Microseconds(p));
    }
    for (uint32_t p = 0; p < 2000; p++) {
      frames.AllocateWithAge(MakeFileUid(NodeId{(i + 1) % n}, 90, p),
                             PageLocation::kGlobal,
                             now - Seconds(300) + Microseconds(p));
    }
  }

  cluster.sim().RunFor(Seconds(5));  // epoch 1 runs to completion

  EpochCost cost;
  cost.initiator_cpu_us = ToMicroseconds(
      cluster.cpu(NodeId{0}).busy_time(CpuCategory::kEpoch));
  if (n > 1) {
    cost.gather_cpu_us = ToMicroseconds(
        cluster.cpu(NodeId{1}).busy_time(CpuCategory::kEpoch));
  }
  cost.request_bytes =
      static_cast<double>(cluster.net().type_traffic(kMsgEpochSummaryReq).bytes);
  cost.summary_bytes =
      static_cast<double>(cluster.net().type_traffic(kMsgEpochSummary).bytes);
  cost.params_bytes =
      static_cast<double>(cluster.net().type_traffic(kMsgEpochParams).bytes);
  return cost;
}

}  // namespace
}  // namespace gms

int main(int argc, char** argv) {
  using namespace gms;
  PaperScale s = BenchScale(argc, argv);
  BenchHeader("Table 5: epoch age-information overhead (per epoch)", s);

  const uint32_t sizes[] = {5, 20, 50, 100};
  TablePrinter table({"n", "Initiator CPU us", "Gather CPU us/node",
                      "Req B", "Summary B", "Params B", "Traffic B/s @2s epoch"});
  for (uint32_t n : sizes) {
    const EpochCost c = MeasureEpoch(n, s);
    const double total_bytes = c.request_bytes + c.summary_bytes + c.params_bytes;
    table.AddNumericRow(std::to_string(n),
                        {c.initiator_cpu_us, c.gather_cpu_us, c.request_bytes,
                         c.summary_bytes, c.params_bytes, total_bytes / 2.0},
                        0);
  }
  table.Print(std::cout);
  std::printf(
      "\nPaper (per epoch, n nodes): initiator request CPU 45n us; gather\n"
      "0.29 us/local + 0.54 us/global page + 78 us marshal per node;\n"
      "distribute ~80n us. Traffic linear in n; <0.8%% initiator CPU and\n"
      "negligible bandwidth at n=100 with 2-second epochs.\n");
  return 0;
}
