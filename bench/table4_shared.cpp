// Table 4: average access times for shared (NFS) pages (ms).
//
// Four configurations from the paper:
//   GMS single    — one client pages an NFS file against idle cluster memory
//                   (putpage + getpage per access),
//   GMS duplicate — a second client caches the whole file, so the paging
//                   client's putpages are duplicate drops and every fetch is
//                   a getpage from the peer's local memory,
//   NFS miss      — no GMS, server cache too small: every client read is an
//                   RPC plus a server disk access,
//   NFS hit       — no GMS, server cache holds the file: RPC only.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/cluster/cluster.h"
#include "src/common/table.h"
#include "src/core/directory.h"
#include "src/workload/patterns.h"

namespace gms {
namespace {

enum class Scenario { kGmsSingle, kGmsDuplicate, kNfsMiss, kNfsHit };

double RunCase(Scenario scenario, bool sequential, const PaperScale& s) {
  const uint32_t client_frames = s.Frames(4096);
  const uint64_t file_pages = client_frames * 2;

  ClusterConfig config;
  config.seed = s.seed;
  config.far = s.far;
  const NodeId client{0};
  const NodeId server{1};
  const NodeId extra{2};  // idle node or caching peer
  switch (scenario) {
    case Scenario::kGmsSingle:
      config.policy = PolicyKind::kGms;
      config.num_nodes = 3;
      config.frames_per_node = {client_frames, 256,
                                static_cast<uint32_t>(file_pages) + 64};
      break;
    case Scenario::kGmsDuplicate:
      config.policy = PolicyKind::kGms;
      config.num_nodes = 3;
      config.frames_per_node = {client_frames, 256,
                                static_cast<uint32_t>(file_pages) + 64};
      break;
    case Scenario::kNfsMiss:
      config.policy = PolicyKind::kLocalLru;
      config.num_nodes = 2;
      config.frames_per_node = {client_frames, 256};
      break;
    case Scenario::kNfsHit:
      config.policy = PolicyKind::kLocalLru;
      config.num_nodes = 2;
      config.frames_per_node = {client_frames,
                                static_cast<uint32_t>(file_pages) + 64};
      break;
  }

  Cluster cluster(config);
  cluster.Start();
  const PageSet file{MakeFileUid(server, 70, 0), file_pages};

  if (scenario == Scenario::kNfsHit) {
    // Warm the server's buffer cache with a local scan.
    auto& warm = cluster.AddWorkload(
        server,
        std::make_unique<SequentialPattern>(file, file_pages, Microseconds(10)),
        "server-warm");
    warm.Start();
    cluster.RunUntilWorkloadsDone();
  }
  if (scenario == Scenario::kGmsDuplicate) {
    // The peer caches the entire file in its local memory.
    auto& warm = cluster.AddWorkload(
        extra,
        std::make_unique<SequentialPattern>(file, file_pages, Microseconds(10)),
        "peer-warm");
    warm.Start();
    cluster.RunUntilWorkloadsDone();
  }

  // Client cold pass (not measured), then the measured passes.
  auto& cold = cluster.AddWorkload(
      client,
      std::make_unique<SequentialPattern>(file, file_pages, Microseconds(20)),
      "cold");
  cold.Start();
  cluster.RunUntilWorkloadsDone();
  cluster.ResetStats();

  std::unique_ptr<AccessPattern> pattern;
  if (sequential) {
    pattern = std::make_unique<SequentialPattern>(file, file_pages * 2,
                                                  Microseconds(20));
  } else {
    pattern = std::make_unique<UniformRandomPattern>(file, file_pages * 2,
                                                     Microseconds(20));
  }
  auto& measured =
      cluster.AddWorkload(client, std::move(pattern), "measured");
  measured.Start();
  if (!cluster.RunUntilWorkloadsDone()) {
    std::printf("WARNING: measured pass did not finish\n");
  }
  return cluster.node_os(client).stats().fault_us.mean() / 1000.0;
}

}  // namespace
}  // namespace gms

int main(int argc, char** argv) {
  using namespace gms;
  PaperScale s = BenchScale(argc, argv);
  BenchHeader("Table 4: average access times for shared pages (ms)", s);

  TablePrinter table({"Access Type", "GMS Single", "GMS Duplicate", "NFS Miss",
                      "NFS Hit"});
  for (bool sequential : {true, false}) {
    table.AddNumericRow(
        sequential ? "Sequential Access" : "Random Access",
        {RunCase(Scenario::kGmsSingle, sequential, s),
         RunCase(Scenario::kGmsDuplicate, sequential, s),
         RunCase(Scenario::kNfsMiss, sequential, s),
         RunCase(Scenario::kNfsHit, sequential, s)},
        1);
  }
  table.Print(std::cout);
  std::printf("\nPaper: sequential 2.1 / 1.7 / 4.8 / 1.9; "
              "random 2.1 / 1.7 / 16.7 / 1.9\n");
  return 0;
}
