// Ablation: the dirty-global extension (paper section 6, future work).
//
// "A reasonable extension to our system would permit dirty pages to be sent
// to global memory without first writing them to disk. Such a scheme would
// have performance advantages ... at the risk of data loss in the case of
// failure. A commonly used solution is to replicate pages in the global
// memory of multiple nodes; this is future work that we intend to explore."
//
// We implemented it. This bench runs a write-heavy workload (random
// read/modify/write over a working set twice local memory) under three
// configurations and reports elapsed time and disk writes:
//
//   baseline GMS       dirty pages written to disk before promotion
//   dirty-global r=1   dirty pages forwarded, one copy (fast, fragile)
//   dirty-global r=2   dirty pages forwarded, two replicas (the paper's
//                      suggested mitigation)
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/cluster/cluster.h"
#include "src/common/table.h"
#include "src/core/directory.h"
#include "src/workload/patterns.h"

namespace gms {
namespace {

struct Outcome {
  double elapsed_s = 0;
  uint64_t disk_writes = 0;
  uint64_t dirty_forwards = 0;
  uint64_t writebacks = 0;
};

Outcome Run(bool dirty_global, uint32_t replicas, const PaperScale& s) {
  ClusterConfig config;
  config.num_nodes = 4;
  config.policy = PolicyKind::kGms;
  config.seed = s.seed;
  config.far = s.far;
  const uint32_t frames = s.Frames(4096);
  config.frames_per_node = {frames, frames * 2, frames * 2, frames * 2};
  config.gms.dirty_global = dirty_global;
  config.gms.dirty_replicas = replicas;

  Cluster cluster(config);
  cluster.Start();
  WorkloadDriver& w = cluster.AddWorkload(
      NodeId{0},
      std::make_unique<UniformRandomPattern>(
          PageSet{MakeAnonUid(NodeId{0}, 1, 0), frames * 2},
          static_cast<uint64_t>(frames) * 12, Microseconds(120),
          /*write_fraction=*/0.6),
      "rmw");
  w.Start();
  if (!cluster.RunUntilWorkloadsDone()) {
    std::printf("WARNING: run did not complete\n");
  }
  Outcome out;
  out.elapsed_s = ToSeconds(w.elapsed());
  for (uint32_t n = 0; n < 4; n++) {
    out.disk_writes += cluster.node_os(NodeId{n}).stats().disk_writes;
    out.dirty_forwards += cluster.service(NodeId{n}).stats().dirty_putpages_sent;
    out.writebacks += cluster.node_os(NodeId{n}).stats().writebacks_received;
  }
  return out;
}

}  // namespace
}  // namespace gms

int main(int argc, char** argv) {
  using namespace gms;
  PaperScale s = BenchScale(argc, argv);
  BenchHeader("Ablation: dirty-global extension on a write-heavy workload", s);

  TablePrinter table({"Configuration", "Elapsed (s)", "Disk writes",
                      "Dirty forwards", "Write-backs"});
  const Outcome base = Run(false, 0, s);
  table.AddNumericRow("baseline (write-back first)",
                      {base.elapsed_s, double(base.disk_writes),
                       double(base.dirty_forwards), double(base.writebacks)},
                      0);
  for (uint32_t r : {1u, 2u}) {
    const Outcome o = Run(true, r, s);
    char label[48];
    std::snprintf(label, sizeof(label), "dirty-global, %u replica%s", r,
                  r > 1 ? "s" : "");
    table.AddNumericRow(label,
                        {o.elapsed_s, double(o.disk_writes),
                         double(o.dirty_forwards), double(o.writebacks)},
                        0);
  }
  table.Print(std::cout);
  std::printf("\nExpected: dirty-global removes eviction-path disk writes\n"
              "entirely; the second replica costs extra network but preserves\n"
              "single-failure safety (see tests/dirty_global_test.cc).\n");
  return 0;
}
