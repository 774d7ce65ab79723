// Table 3: average access times for non-shared pages (ms).
//
// The paper's synthetic program: a 64 MB machine repeatedly accessing
// anonymous pages in excess of physical memory, sequentially and randomly,
// with and without GMS. In steady state every access requires a putpage to
// free a frame and a getpage (or disk read) to fetch the faulted page.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/cluster/cluster.h"
#include "src/common/table.h"
#include "src/core/directory.h"
#include "src/workload/patterns.h"

namespace gms {
namespace {

// Returns the mean fault service time (ms) in steady state.
double RunCase(PolicyKind policy, bool sequential, const PaperScale& s) {
  ClusterConfig config;
  config.num_nodes = 2;
  config.policy = policy;
  config.seed = s.seed;
  config.far = s.far;
  const uint32_t frames = s.Frames();
  const uint64_t footprint = frames * 2;
  config.frames_per_node = {frames, static_cast<uint32_t>(footprint) + 64};

  Cluster cluster(config);
  cluster.Start();
  const PageSet set{MakeAnonUid(NodeId{0}, 1, 0), footprint};

  // Population pass: write every page once so it exists on swap (and, with
  // GMS, spills into the idle node's global memory).
  auto& populate = cluster.AddWorkload(
      NodeId{0},
      std::make_unique<SequentialPattern>(set, footprint, Microseconds(20),
                                          /*write_fraction=*/1.0),
      "populate");
  populate.Start();
  if (!cluster.RunUntilWorkloadsDone()) {
    std::printf("WARNING: population did not finish\n");
  }
  // One warm lap so the steady-state putpage+getpage regime is established
  // before measuring.
  auto& warm = cluster.AddWorkload(
      NodeId{0},
      std::make_unique<SequentialPattern>(set, footprint, Microseconds(20)),
      "warm");
  warm.Start();
  cluster.RunUntilWorkloadsDone();
  cluster.ResetStats();

  std::unique_ptr<AccessPattern> pattern;
  const uint64_t measured_ops = footprint * 2;
  if (sequential) {
    pattern = std::make_unique<SequentialPattern>(set, measured_ops,
                                                  Microseconds(20));
  } else {
    pattern = std::make_unique<UniformRandomPattern>(set, measured_ops,
                                                     Microseconds(20));
  }
  auto& measured = cluster.AddWorkload(NodeId{0}, std::move(pattern),
                                       sequential ? "seq" : "rand");
  measured.Start();
  if (!cluster.RunUntilWorkloadsDone()) {
    std::printf("WARNING: measured pass did not finish\n");
  }
  const auto& os = cluster.node_os(NodeId{0}).stats();
  return os.fault_us.mean() / 1000.0;
}

}  // namespace
}  // namespace gms

int main(int argc, char** argv) {
  using namespace gms;
  PaperScale s = BenchScale(argc, argv);
  BenchHeader("Table 3: average access times for non-shared pages (ms)", s);

  TablePrinter table({"Access Type", "GMS", "No GMS"});
  table.AddNumericRow("Sequential Access",
                      {RunCase(PolicyKind::kGms, true, s),
                       RunCase(PolicyKind::kLocalLru, true, s)},
                      1);
  table.AddNumericRow("Random Access",
                      {RunCase(PolicyKind::kGms, false, s),
                       RunCase(PolicyKind::kLocalLru, false, s)},
                      1);
  table.Print(std::cout);
  std::printf("\nPaper: sequential 2.1 / 3.6; random 2.1 / 14.3\n");
  return 0;
}
