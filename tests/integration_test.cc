// End-to-end cluster tests: whole-stack behaviour of GMS, N-chance, and the
// no-cluster-memory baseline on small clusters.
#include <gtest/gtest.h>

#include <memory>

#include "src/cluster/cluster.h"
#include "src/core/directory.h"
#include "src/workload/patterns.h"

namespace gms {
namespace {

ClusterConfig SmallConfig(PolicyKind policy, uint32_t nodes, uint32_t frames,
                          uint64_t seed = 42) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.policy = policy;
  config.frames = frames;
  config.seed = seed;
  // Small-memory test clusters need fast epochs to be responsive.
  config.gms.epoch.t_min = Milliseconds(200);
  config.gms.epoch.t_max = Seconds(2);
  config.gms.epoch.m_min = 16;
  config.gms.first_epoch_delay = Milliseconds(1);
  return config;
}

// Random access over a disk-backed (local file) set: every cold miss costs a
// disk read, like the paper's data-intensive applications.
std::unique_ptr<AccessPattern> FileThrash(NodeId node, uint64_t pages,
                                          uint64_t ops) {
  return std::make_unique<UniformRandomPattern>(
      PageSet{MakeFileUid(node, 123, 0), pages}, ops, Microseconds(50));
}

TEST(IntegrationTest, GmsUsesIdleMemoryAndAvoidsDisk) {
  // Node 0: 256-frame node thrashing over 512 pages. Node 1: idle 1024
  // frames — enough for the entire overflow. After warmup, nearly all
  // faults should hit global memory, not disk.
  auto config = SmallConfig(PolicyKind::kGms, 2, 256);
  config.frames_per_node = {256, 1024};
  Cluster cluster(config);
  cluster.Start();
  auto& w = cluster.AddWorkload(NodeId{0}, FileThrash(NodeId{0}, 512, 20000),
                                "thrash");
  w.Start();
  ASSERT_TRUE(cluster.RunUntilWorkloadsDone());

  const auto& svc = cluster.service(NodeId{0}).stats();
  const auto& os = cluster.node_os(NodeId{0}).stats();
  EXPECT_GT(svc.getpage_hits, 0u);
  // Steady state: hits dominate misses by a wide margin.
  EXPECT_GT(svc.getpage_hits, svc.getpage_misses * 3);
  // Disk reads are bounded by roughly the cold-start population.
  EXPECT_LT(os.disk_reads, 2000u);
  EXPECT_GT(os.faults, 5000u);
}

TEST(IntegrationTest, NoGmsGoesToDiskEveryMiss) {
  auto config = SmallConfig(PolicyKind::kLocalLru, 2, 256);
  Cluster cluster(config);
  cluster.Start();
  auto& w = cluster.AddWorkload(NodeId{0}, FileThrash(NodeId{0}, 512, 5000),
                                "thrash");
  w.Start();
  ASSERT_TRUE(cluster.RunUntilWorkloadsDone());
  const auto& os = cluster.node_os(NodeId{0}).stats();
  EXPECT_EQ(os.faults, os.disk_reads);
  EXPECT_EQ(cluster.service(NodeId{0}).stats().getpage_hits, 0u);
}

TEST(IntegrationTest, GmsOutperformsNativePaging) {
  SimTime elapsed[2];
  for (int run = 0; run < 2; run++) {
    auto config = SmallConfig(
        run == 0 ? PolicyKind::kLocalLru : PolicyKind::kGms, 2, 256);
    config.frames_per_node = {256, 1024};
    Cluster cluster(config);
    cluster.Start();
    auto& w = cluster.AddWorkload(NodeId{0}, FileThrash(NodeId{0}, 512, 10000),
                                  "thrash");
    w.Start();
    ASSERT_TRUE(cluster.RunUntilWorkloadsDone());
    elapsed[run] = w.elapsed();
  }
  // Remote memory is several times faster than random disk reads.
  EXPECT_GT(elapsed[0], elapsed[1] * 2);
}

TEST(IntegrationTest, ZeroIdleMemoryDegradesGracefully) {
  // Both nodes thrash; there is no idle memory anywhere, so GMS should fall
  // into the MinAge=0 regime: almost everything goes to disk, and GMS adds
  // only its (tiny) overhead.
  auto config = SmallConfig(PolicyKind::kGms, 2, 256);
  Cluster cluster(config);
  cluster.Start();
  auto& w0 = cluster.AddWorkload(NodeId{0}, FileThrash(NodeId{0}, 512, 8000),
                                 "thrash0");
  auto& w1 = cluster.AddWorkload(NodeId{1}, FileThrash(NodeId{1}, 512, 8000),
                                 "thrash1");
  w0.Start();
  w1.Start();
  ASSERT_TRUE(cluster.RunUntilWorkloadsDone());
  const auto& svc0 = cluster.service(NodeId{0}).stats();
  // Very little useful forwarding can happen.
  EXPECT_LT(svc0.getpage_hits, svc0.getpage_attempts / 3);
}

TEST(IntegrationTest, DeterministicAcrossRuns) {
  Cluster::Totals t[2];
  for (int run = 0; run < 2; run++) {
    auto config = SmallConfig(PolicyKind::kGms, 3, 256, /*seed=*/7);
    Cluster cluster(config);
    cluster.Start();
    cluster.AddWorkload(NodeId{0}, FileThrash(NodeId{0}, 600, 6000), "a");
    cluster.AddWorkload(NodeId{1}, FileThrash(NodeId{1}, 300, 4000), "b");
    cluster.StartWorkloads();
    ASSERT_TRUE(cluster.RunUntilWorkloadsDone());
    t[run] = cluster.totals();
  }
  EXPECT_EQ(t[0].accesses, t[1].accesses);
  EXPECT_EQ(t[0].faults, t[1].faults);
  EXPECT_EQ(t[0].getpage_hits, t[1].getpage_hits);
  EXPECT_EQ(t[0].disk_reads, t[1].disk_reads);
  EXPECT_EQ(t[0].net_bytes, t[1].net_bytes);
}

TEST(IntegrationTest, CrashOfIdleNodeLosesNoData) {
  // Pages cached on a crashed idle node are clean; the workload must
  // complete correctly by refetching from disk.
  auto config = SmallConfig(PolicyKind::kGms, 2, 256);
  config.frames_per_node = {256, 1024};
  Cluster cluster(config);
  cluster.Start();
  auto& w = cluster.AddWorkload(NodeId{0}, FileThrash(NodeId{0}, 512, 15000),
                                "thrash");
  w.Start();
  cluster.sim().RunFor(Seconds(5));
  ASSERT_FALSE(w.finished());
  cluster.CrashNode(NodeId{1});
  ASSERT_TRUE(cluster.RunUntilWorkloadsDone());
  EXPECT_EQ(w.ops(), 15000u);
  // Timeouts happened (requests in flight to the dead node) but the workload
  // finished; everything was recoverable from disk.
  const auto& os = cluster.node_os(NodeId{0}).stats();
  EXPECT_GT(os.disk_reads, 0u);
}

TEST(IntegrationTest, SharedFileServedFromPeerMemory) {
  // Node 1 (the server, big memory) reads its own file into cache; node 0
  // then reads the same file. GMS should serve node 0 mostly from node 1's
  // memory (case 4: shared-page hits), not from disk.
  auto config = SmallConfig(PolicyKind::kGms, 2, 256);
  config.frames_per_node = {256, 2048};
  Cluster cluster(config);
  cluster.Start();
  const PageSet file{MakeFileUid(NodeId{1}, 77, 0), 600};

  auto& server_scan = cluster.AddWorkload(
      NodeId{1},
      std::make_unique<SequentialPattern>(file, 600, Microseconds(20)),
      "server-warm");
  server_scan.Start();
  ASSERT_TRUE(cluster.RunUntilWorkloadsDone());

  cluster.ResetStats();
  auto& client = cluster.AddWorkload(
      NodeId{0},
      std::make_unique<SequentialPattern>(file, 1200, Microseconds(20)),
      "client-read");
  client.Start();
  ASSERT_TRUE(cluster.RunUntilWorkloadsDone());

  const auto& svc0 = cluster.service(NodeId{0}).stats();
  const auto& os0 = cluster.node_os(NodeId{0}).stats();
  EXPECT_GT(svc0.getpage_hits, 500u);
  EXPECT_EQ(os0.disk_reads, 0u);  // the file lives on node 1's disk
  EXPECT_LT(os0.nfs_reads, 200u); // most reads came from peer memory
}

TEST(IntegrationTest, NchanceSmokeUsesRemoteMemory) {
  auto config = SmallConfig(PolicyKind::kNchance, 3, 256);
  config.frames_per_node = {256, 1024, 1024};
  Cluster cluster(config);
  cluster.Start();
  auto& w = cluster.AddWorkload(NodeId{0}, FileThrash(NodeId{0}, 512, 15000),
                                "thrash");
  w.Start();
  ASSERT_TRUE(cluster.RunUntilWorkloadsDone());
  const auto& svc = cluster.service(NodeId{0}).stats();
  EXPECT_GT(svc.getpage_hits, 1000u);
  const auto* policy =
      static_cast<const NchancePolicy*>(cluster.service(NodeId{0}).policy());
  EXPECT_GT(policy->nchance_stats().forwards_sent, 0u);
}

TEST(IntegrationTest, EpochsRotateAndDistributeWeights) {
  auto config = SmallConfig(PolicyKind::kGms, 3, 256);
  config.frames_per_node = {256, 512, 512};
  Cluster cluster(config);
  cluster.Start();
  auto& w = cluster.AddWorkload(NodeId{0}, FileThrash(NodeId{0}, 700, 12000),
                                "thrash");
  w.Start();
  ASSERT_TRUE(cluster.RunUntilWorkloadsDone());
  // Epochs advanced on every node.
  for (uint32_t i = 0; i < 3; i++) {
    EXPECT_GT(cluster.gms_agent(NodeId{i})->epoch_view().epoch, 1u)
        << "node " << i;
  }
}

TEST(IntegrationTest, RestartedNodeRejoinsCluster) {
  auto config = SmallConfig(PolicyKind::kGms, 3, 256);
  config.frames_per_node = {256, 1024, 1024};
  Cluster cluster(config);
  cluster.Start();
  auto& w = cluster.AddWorkload(NodeId{0}, FileThrash(NodeId{0}, 512, 30000),
                                "thrash");
  w.Start();
  cluster.sim().RunFor(Seconds(3));
  cluster.CrashNode(NodeId{2});
  cluster.sim().RunFor(Seconds(2));
  cluster.RestartNode(NodeId{2});
  ASSERT_TRUE(cluster.RunUntilWorkloadsDone());
  EXPECT_EQ(w.ops(), 30000u);
  // The rejoined node adopted the master's POD.
  EXPECT_TRUE(cluster.gms_agent(NodeId{2})->pod().IsLive(NodeId{2}));
  EXPECT_GE(cluster.gms_agent(NodeId{2})->pod().version(), 2u);
}

}  // namespace
}  // namespace gms
