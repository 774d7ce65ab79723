// Tests for the node/OS layer: fault path, hit path, pageout daemon
// watermarks, dirty write-back with promote, zero-fill of anonymous pages,
// NFS client/server behaviour, and concurrent-access waiters.
#include <gtest/gtest.h>

#include <memory>

#include "src/cluster/cluster.h"
#include "src/core/directory.h"
#include "src/workload/patterns.h"

namespace gms {
namespace {

class NodeOsTest : public ::testing::Test {
 protected:
  void Build(PolicyKind policy, std::vector<uint32_t> frames) {
    ClusterConfig config;
    config.num_nodes = static_cast<uint32_t>(frames.size());
    config.policy = policy;
    config.frames_per_node = std::move(frames);
    config.frames = 256;
    cluster_ = std::make_unique<Cluster>(config);
    cluster_->Start();
  }

  SimTime Access(uint32_t node, const Uid& uid, bool write = false) {
    bool done = false;
    const SimTime t0 = cluster_->sim().now();
    SimTime t1 = t0;
    cluster_->node_os(NodeId{node}).Access(uid, write, [&] {
      done = true;
      t1 = cluster_->sim().now();
    });
    while (!done) {
      cluster_->sim().RunFor(Milliseconds(1));
    }
    return t1 - t0;
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_F(NodeOsTest, FirstTouchOfAnonymousPageIsZeroFill) {
  Build(PolicyKind::kLocalLru, {64});
  const SimTime latency = Access(0, MakeAnonUid(NodeId{0}, 1, 0));
  // No disk read: only trap overhead, far below a disk access.
  EXPECT_LT(latency, Milliseconds(1));
  EXPECT_EQ(cluster_->node_os(NodeId{0}).stats().disk_reads, 0u);
}

TEST_F(NodeOsTest, FileBackedFaultReadsDisk) {
  Build(PolicyKind::kLocalLru, {64});
  const SimTime latency = Access(0, MakeFileUid(NodeId{0}, 5, 0));
  EXPECT_GT(latency, Milliseconds(3));
  EXPECT_EQ(cluster_->node_os(NodeId{0}).stats().disk_reads, 1u);
}

TEST_F(NodeOsTest, HitIsThreeOrdersFasterThanDisk) {
  Build(PolicyKind::kLocalLru, {64});
  const Uid uid = MakeFileUid(NodeId{0}, 5, 0);
  const SimTime miss = Access(0, uid);
  const SimTime hit = Access(0, uid);
  EXPECT_GT(miss, hit * 1000);
  EXPECT_EQ(cluster_->node_os(NodeId{0}).stats().local_hits, 1u);
}

TEST_F(NodeOsTest, WriteMarksDirtyAndWriteBackCleans) {
  Build(PolicyKind::kLocalLru, {64});
  const Uid uid = MakeAnonUid(NodeId{0}, 1, 0);
  Access(0, uid, /*write=*/true);
  EXPECT_TRUE(cluster_->frames(NodeId{0}).Lookup(uid)->dirty());
  // Overflow memory so the dirty page gets written back.
  for (uint32_t i = 1; i < 128; i++) {
    Access(0, MakeAnonUid(NodeId{0}, 1, i), /*write=*/true);
  }
  cluster_->sim().RunFor(Seconds(2));
  EXPECT_GT(cluster_->node_os(NodeId{0}).stats().disk_writes, 0u);
}

TEST_F(NodeOsTest, WrittenBackAnonymousPageReloadsFromSwap) {
  Build(PolicyKind::kLocalLru, {64});
  const Uid uid = MakeAnonUid(NodeId{0}, 1, 0);
  Access(0, uid, /*write=*/true);
  // Push it out of memory.
  for (uint32_t i = 1; i < 200; i++) {
    Access(0, MakeAnonUid(NodeId{0}, 1, i), /*write=*/true);
  }
  cluster_->sim().RunFor(Seconds(2));
  ASSERT_EQ(cluster_->frames(NodeId{0}).Lookup(uid), nullptr);
  const uint64_t reads_before = cluster_->node_os(NodeId{0}).stats().disk_reads;
  const SimTime latency = Access(0, uid);
  // This time it is a real swap-in, not a zero fill.
  EXPECT_EQ(cluster_->node_os(NodeId{0}).stats().disk_reads, reads_before + 1);
  EXPECT_GT(latency, Milliseconds(2));
}

TEST_F(NodeOsTest, PageoutKeepsFreeListAboveWatermark) {
  Build(PolicyKind::kLocalLru, {128});
  for (uint32_t i = 0; i < 1000; i++) {
    Access(0, MakeAnonUid(NodeId{0}, 1, i));
  }
  cluster_->sim().RunFor(Seconds(1));
  // free_high defaults to 2*max(4, frames/64) = 8 for 128 frames.
  EXPECT_GE(cluster_->frames(NodeId{0}).free_count(), 4u);
}

TEST_F(NodeOsTest, NfsReadFromRemoteServer) {
  Build(PolicyKind::kLocalLru, {64, 256});
  const Uid uid = MakeFileUid(NodeId{1}, 9, 3);
  const SimTime latency = Access(0, uid);
  const auto& client = cluster_->node_os(NodeId{0}).stats();
  const auto& server = cluster_->node_os(NodeId{1}).stats();
  EXPECT_EQ(client.nfs_reads, 1u);
  EXPECT_EQ(client.disk_reads, 0u);
  EXPECT_EQ(server.nfs_served, 1u);
  EXPECT_EQ(server.nfs_server_disk_reads, 1u);
  // NFS miss: RPC + server disk.
  EXPECT_GT(latency, Milliseconds(10));
}

TEST_F(NodeOsTest, NfsServerCacheHitIsFast) {
  Build(PolicyKind::kLocalLru, {64, 256});
  const Uid uid = MakeFileUid(NodeId{1}, 9, 3);
  Access(1, uid);  // server warms its own cache
  const SimTime latency = Access(0, uid);
  EXPECT_EQ(cluster_->node_os(NodeId{1}).stats().nfs_server_disk_reads, 0u);
  // ~1.9 ms: RPC plus reply, no disk.
  EXPECT_LT(latency, Milliseconds(3));
  EXPECT_GT(latency, Milliseconds(1));
}

TEST_F(NodeOsTest, NfsTimeoutWhenServerDown) {
  Build(PolicyKind::kLocalLru, {64, 256});
  cluster_->CrashNode(NodeId{1});
  Access(0, MakeFileUid(NodeId{1}, 9, 3));
  EXPECT_EQ(cluster_->node_os(NodeId{0}).stats().nfs_timeouts, 1u);
}

TEST_F(NodeOsTest, ConcurrentAccessesToFaultingPageCoalesce) {
  Build(PolicyKind::kLocalLru, {64});
  const Uid uid = MakeFileUid(NodeId{0}, 5, 0);
  int completions = 0;
  for (int i = 0; i < 3; i++) {
    cluster_->node_os(NodeId{0}).Access(uid, false, [&] { completions++; });
  }
  cluster_->sim().RunFor(Seconds(1));
  EXPECT_EQ(completions, 3);
  // Only one fault and one disk read happened.
  EXPECT_EQ(cluster_->node_os(NodeId{0}).stats().faults, 1u);
  EXPECT_EQ(cluster_->node_os(NodeId{0}).stats().disk_reads, 1u);
  EXPECT_EQ(cluster_->node_os(NodeId{0}).stats().local_hits, 2u);
}

TEST_F(NodeOsTest, PromoteOnWriteSendsCleanedPageToGlobalMemory) {
  Build(PolicyKind::kGms, {96, 1024});
  cluster_->sim().RunFor(Seconds(1));  // epoch weights
  // Dirty the whole memory and beyond; write-backs should be promoted into
  // node 1's global memory, not dropped.
  for (uint32_t i = 0; i < 300; i++) {
    Access(0, MakeAnonUid(NodeId{0}, 1, i), /*write=*/true);
  }
  cluster_->sim().RunFor(Seconds(2));
  EXPECT_GT(cluster_->frames(NodeId{1}).global_count(), 50u);
  EXPECT_GT(cluster_->node_os(NodeId{0}).stats().disk_writes, 0u);
}

TEST_F(NodeOsTest, AccessStatsAccumulate) {
  Build(PolicyKind::kLocalLru, {64});
  Access(0, MakeFileUid(NodeId{0}, 5, 0));
  Access(0, MakeFileUid(NodeId{0}, 5, 0));
  Access(0, MakeFileUid(NodeId{0}, 5, 1));
  const auto& stats = cluster_->node_os(NodeId{0}).stats();
  EXPECT_EQ(stats.accesses, 3u);
  EXPECT_EQ(stats.faults, 2u);
  EXPECT_EQ(stats.local_hits, 1u);
  EXPECT_EQ(stats.access_us.count(), 3u);
  EXPECT_EQ(stats.fault_us.count(), 2u);
  EXPECT_GT(stats.fault_us.mean(), 1000.0);  // > 1 ms (disk)
}

}  // namespace
}  // namespace gms
