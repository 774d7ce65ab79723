// Memory-hierarchy tests: the FarMemoryTier device model in isolation, then
// the tier wired into a live cluster — fill-source accounting, the
// global < far < disk latency ordering, exact span tiling through the far
// tier, crash survival (disaggregated memory outlives its node), the
// invariant checker's residency bound, and stats reset.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "src/cluster/cluster.h"
#include "src/cluster/invariants.h"
#include "src/core/directory.h"
#include "src/mem/far_memory.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/workload/patterns.h"

namespace gms {
namespace {

FarMemoryParams TestParams(uint64_t capacity) {
  FarMemoryParams p;
  p.capacity_pages = capacity;
  p.fixed_latency = Microseconds(100);
  p.per_byte = Nanoseconds(1);
  p.page_bytes = 1000;
  return p;
}

TEST(FarMemoryTierTest, WriteBecomesVisibleOnlyAtTransferCompletion) {
  Simulator sim;
  FarMemoryTier tier(&sim, TestParams(8));
  const Uid uid = MakeAnonUid(NodeId{0}, 1, 0);
  bool done = false;
  tier.WritePage(uid, [&] { done = true; });
  // In flight: a concurrent fault must still fall through to the next tier.
  EXPECT_FALSE(tier.Holds(uid));
  sim.RunFor(Microseconds(99));
  EXPECT_FALSE(done);
  EXPECT_FALSE(tier.Holds(uid));
  sim.RunFor(Microseconds(2));  // fixed 100 us + 1 ns/B * 1000 B
  EXPECT_TRUE(done);
  EXPECT_TRUE(tier.Holds(uid));
  EXPECT_EQ(tier.stats().writes, 1u);
  EXPECT_EQ(tier.resident_pages(), 1u);
}

TEST(FarMemoryTierTest, SingleChannelFifoQueuesTransfers) {
  Simulator sim;
  FarMemoryTier tier(&sim, TestParams(8));
  SimTime first = 0;
  SimTime second = 0;
  tier.WritePage(MakeAnonUid(NodeId{0}, 1, 0), [&] { first = sim.now(); });
  tier.WritePage(MakeAnonUid(NodeId{0}, 1, 1), [&] { second = sim.now(); });
  sim.RunFor(Milliseconds(1));
  const SimTime service = Microseconds(100) + Nanoseconds(1) * 1000;
  EXPECT_EQ(first, service);
  EXPECT_EQ(second, service * 2);  // queued behind the first transfer
}

TEST(FarMemoryTierTest, CapacityPressureEvictsLruAndReadsRefresh) {
  Simulator sim;
  FarMemoryTier tier(&sim, TestParams(2));
  const Uid a = MakeAnonUid(NodeId{0}, 1, 0);
  const Uid b = MakeAnonUid(NodeId{0}, 1, 1);
  const Uid c = MakeAnonUid(NodeId{0}, 1, 2);
  tier.WritePage(a, {});
  tier.WritePage(b, {});
  sim.RunFor(Milliseconds(1));
  // Touch a so b becomes the LRU entry; the next insert must displace b.
  tier.ReadPage(a, {});
  sim.RunFor(Milliseconds(1));
  tier.WritePage(c, {});
  sim.RunFor(Milliseconds(1));
  EXPECT_TRUE(tier.Holds(a));
  EXPECT_FALSE(tier.Holds(b));
  EXPECT_TRUE(tier.Holds(c));
  EXPECT_EQ(tier.stats().evictions, 1u);
  EXPECT_EQ(tier.resident_pages(), 2u);
}

TEST(FarMemoryTierTest, SetCapacityEvictsSynchronouslyDownToTheBound) {
  Simulator sim;
  FarMemoryTier tier(&sim, TestParams(8));
  for (uint32_t i = 0; i < 6; i++) {
    tier.WritePage(MakeAnonUid(NodeId{0}, 1, i), {});
  }
  sim.RunFor(Milliseconds(10));
  ASSERT_EQ(tier.resident_pages(), 6u);
  tier.SetCapacity(2);
  // No simulation time may pass: the invariant checker can run right after.
  EXPECT_EQ(tier.resident_pages(), 2u);
  EXPECT_EQ(tier.stats().evictions, 4u);
  // Oldest went first; the two most recent inserts survive.
  EXPECT_TRUE(tier.Holds(MakeAnonUid(NodeId{0}, 1, 4)));
  EXPECT_TRUE(tier.Holds(MakeAnonUid(NodeId{0}, 1, 5)));
  tier.ResetStats();
  EXPECT_EQ(tier.stats().evictions, 0u);
  EXPECT_EQ(tier.stats().read_latency.count(), 0u);
}

// Residency never exceeds capacity, whatever order writes and shrinks come
// in: a shrink below the current residency evicts down to it at once, and
// writes that land after a shrink displace instead of overfilling.
TEST(FarMemoryTierTest, ShrinkBelowResidencyNeverLeavesTheTierOverfull) {
  Simulator sim;
  FarMemoryTier tier(&sim, TestParams(16));
  uint32_t next = 0;
  for (const uint64_t cap : {16u, 5u, 0u, 9u, 3u, 16u, 1u}) {
    for (int w = 0; w < 12; w++) {
      tier.WritePage(MakeAnonUid(NodeId{0}, 1, next++), {});
    }
    sim.RunFor(Microseconds(600));  // some writes land, the rest queue
    ASSERT_LE(tier.resident_pages(), tier.capacity_pages());
    const uint64_t before = tier.resident_pages();
    tier.SetCapacity(cap);
    EXPECT_EQ(tier.capacity_pages(), cap);
    EXPECT_EQ(tier.resident_pages(), std::min(before, cap));
    EXPECT_LE(tier.resident_pages(), tier.capacity_pages());
  }
  sim.RunFor(Milliseconds(100));
  EXPECT_EQ(tier.resident_pages(), 1u);
  EXPECT_EQ(tier.stats().writes, next);
}

TEST(FarMemoryTierTest, EvictRemovesExactlyTheRequestedPage) {
  Simulator sim;
  FarMemoryTier tier(&sim, TestParams(8));
  const Uid a = MakeAnonUid(NodeId{0}, 1, 0);
  const Uid b = MakeAnonUid(NodeId{0}, 1, 1);
  tier.WritePage(a, {});
  tier.WritePage(b, {});
  sim.RunFor(Milliseconds(1));
  tier.Evict(a);
  EXPECT_FALSE(tier.Holds(a));
  EXPECT_TRUE(tier.Holds(b));
  tier.Evict(a);  // idempotent on absent pages
  EXPECT_EQ(tier.resident_pages(), 1u);
}

TEST(FarMemoryTierTest, ZeroCapacityDisplacesEveryDemotionAtOnce) {
  Simulator sim;
  FarMemoryTier tier(&sim, TestParams(0));
  tier.WritePage(MakeAnonUid(NodeId{0}, 1, 0), {});
  tier.WritePage(MakeAnonUid(NodeId{0}, 1, 0), {});
  sim.RunFor(Milliseconds(1));
  EXPECT_FALSE(tier.Holds(MakeAnonUid(NodeId{0}, 1, 0)));
  EXPECT_EQ(tier.resident_pages(), 0u);
  EXPECT_EQ(tier.stats().writes, 2u);
  EXPECT_EQ(tier.stats().evictions, 2u);
}

// --- cluster-level ---

// The tier_sweep overflow universe, shrunk for a test: a 4-node GMS cluster
// whose node-0 working set exceeds total cluster RAM, so steady-state misses
// must fill from the far tier or the disk.
ClusterConfig OverflowConfig(uint64_t far_pages) {
  ClusterConfig config;
  config.num_nodes = 4;
  config.policy = PolicyKind::kGms;
  config.seed = 7;
  config.frames = 48;
  config.far.capacity_pages = far_pages;
  return config;
}

void RunOverflow(Cluster& cluster, uint64_t footprint) {
  cluster.Start();
  cluster.AddWorkload(
      NodeId{0},
      std::make_unique<UniformRandomPattern>(
          PageSet{MakeFileUid(NodeId{0}, 7, 0), footprint}, footprint * 4,
          Microseconds(30), /*write_fraction=*/0.1),
      "overflow");
  cluster.StartWorkloads();
  ASSERT_TRUE(cluster.RunUntilWorkloadsDone(Seconds(36000)));
  cluster.sim().RunFor(Milliseconds(100));
}

TEST(TierClusterTest, FillCountersPartitionTheMissesOnEveryNode) {
  Cluster cluster(OverflowConfig(/*far_pages=*/96));
  RunOverflow(cluster, /*footprint=*/288);
  const MemoryServiceStats& svc = cluster.service(NodeId{0}).stats();
  EXPECT_GT(svc.fills_far, 0u) << "the far tier never served a fill";
  EXPECT_GT(svc.fills_disk, 0u);
  EXPECT_GT(svc.demotions_far, 0u) << "no discard was demoted";
  for (uint32_t i = 0; i < cluster.num_nodes(); i++) {
    const MemoryServiceStats& s = cluster.service(NodeId{i}).stats();
    EXPECT_EQ(s.fills_zero + s.fills_far + s.fills_disk + s.fills_nfs,
              s.getpage_misses)
        << "fill sources do not partition the misses on node " << i;
  }
}

TEST(TierClusterTest, MeasuredLatenciesRespectTheHierarchyOrdering) {
  Cluster cluster(OverflowConfig(/*far_pages=*/96));
  RunOverflow(cluster, /*footprint=*/288);
  const MemoryServiceStats& svc = cluster.service(NodeId{0}).stats();
  const FarMemoryTier* far = cluster.far_tier(NodeId{0});
  ASSERT_NE(far, nullptr);
  ASSERT_GT(svc.getpage_hit_ns.count(), 0u);
  ASSERT_GT(far->stats().read_latency.count(), 0u);
  ASSERT_GT(cluster.disk(NodeId{0}).stats().read_latency.count(), 0u);
  const double hit_us =
      static_cast<double>(svc.getpage_hit_ns.Quantile(0.5)) / 1000.0;
  const double far_us = far->stats().read_latency.mean();
  const double disk_us = cluster.disk(NodeId{0}).stats().read_latency.mean();
  EXPECT_LT(hit_us, far_us);
  EXPECT_LT(far_us, disk_us);
}

TEST(TierClusterTest, InvariantCheckerAcceptsAQuiescentTieredCluster) {
  Cluster cluster(OverflowConfig(/*far_pages=*/96));
  RunOverflow(cluster, /*footprint=*/288);
  ASSERT_TRUE(cluster.RunUntilQuiescent(Seconds(60)));
  const InvariantReport report = ClusterInvariantChecker::Check(cluster);
  EXPECT_TRUE(report.ok()) << report.ToString();
  const FarMemoryTier* far = cluster.far_tier(NodeId{0});
  ASSERT_NE(far, nullptr);
  EXPECT_LE(far->resident_pages(), far->capacity_pages());
}

TEST(TierClusterTest, ResetStatsClearsHistogramsAndTierStats) {
  Cluster cluster(OverflowConfig(/*far_pages=*/96));
  RunOverflow(cluster, /*footprint=*/288);
  ASSERT_GT(cluster.service(NodeId{0}).stats().getpage_hit_ns.count(), 0u);
  ASSERT_GT(cluster.far_tier(NodeId{0})->stats().writes, 0u);
  cluster.ResetStats();
  EXPECT_EQ(cluster.service(NodeId{0}).stats().getpage_hit_ns.count(), 0u);
  EXPECT_EQ(cluster.service(NodeId{0}).stats().getpage_miss_ns.count(), 0u);
  EXPECT_EQ(cluster.service(NodeId{0}).stats().fills_far, 0u);
  EXPECT_EQ(cluster.far_tier(NodeId{0})->stats().writes, 0u);
  EXPECT_EQ(cluster.far_tier(NodeId{0})->stats().reads, 0u);
  // Contents are state, not statistics: the reset must NOT empty the tier.
  EXPECT_GT(cluster.far_tier(NodeId{0})->resident_pages(), 0u);
}

// Far memory is disaggregated — it is not the node's RAM, so a crash loses
// the frame table but NOT the far tier's contents, and the restarted node
// can fill from it again.
TEST(TierClusterTest, FarTierSurvivesACrashAndServesTheRestartedNode) {
  Cluster cluster(OverflowConfig(/*far_pages=*/96));
  RunOverflow(cluster, /*footprint=*/288);
  FarMemoryTier* far = cluster.far_tier(NodeId{0});
  ASSERT_NE(far, nullptr);
  const uint64_t resident_before = far->resident_pages();
  ASSERT_GT(resident_before, 0u);
  cluster.CrashNode(NodeId{0});
  EXPECT_EQ(far->resident_pages(), resident_before)
      << "a node crash must not wipe disaggregated memory";
  cluster.sim().RunFor(Seconds(2));
  cluster.RestartNode(NodeId{0});
  cluster.sim().RunFor(Seconds(1));
  const uint64_t fills_before =
      cluster.service(NodeId{0}).stats().fills_far;
  cluster.AddWorkload(
      NodeId{0},
      std::make_unique<UniformRandomPattern>(
          PageSet{MakeFileUid(NodeId{0}, 7, 0), 288}, 288 * 2,
          Microseconds(30), /*write_fraction=*/0.1),
      "after-restart");
  cluster.StartWorkloads();
  ASSERT_TRUE(cluster.RunUntilWorkloadsDone(Seconds(36000)));
  EXPECT_GT(cluster.service(NodeId{0}).stats().fills_far, fills_before)
      << "the restarted node never filled from its surviving far tier";
}

// With the tier in the fault path, the critical-path decomposition must
// still tile end-to-end latency exactly — and the far components must
// actually appear on some path (the tier is on the traced fill route, via
// kFarWait/kFarService, exactly like the disk's wait/service split).
TEST(TierClusterTest, SpansThroughTheFarTierTileExactly) {
  if (!kTraceCompiledIn) {
    GTEST_SKIP() << "tracer compiled out (GMS_TRACE=OFF)";
  }
  const std::string path = ::testing::TempDir() + "/tier_test_spans_" +
                           std::to_string(::getpid()) + ".trace";
  ClusterConfig config = OverflowConfig(/*far_pages=*/96);
  config.obs.trace = true;
  config.obs.trace_path = path;
  Cluster cluster(config);
  RunOverflow(cluster, /*footprint=*/288);
  ASSERT_NE(cluster.tracer(), nullptr);
  cluster.tracer()->Finish();

  SpanForest forest;
  std::string error;
  ASSERT_TRUE(SpanForest::FromFile(path, &forest, &error)) << error;
  std::remove(path.c_str());
  EXPECT_EQ(forest.unknown_kind_records, 0u)
      << "the readers must know the far-memory kinds";
  uint64_t ended = 0;
  SimTime far_time = 0;
  for (const auto& [id, trace] : forest.traces) {
    if (!trace.has_end) {
      continue;
    }
    ended++;
    const CriticalPath cp = ComputeCriticalPath(trace);
    ASSERT_TRUE(cp.complete)
        << "trace did not tile:\n" << RenderTraceTree(trace);
    SimTime sum = 0;
    for (size_t c = 1; c < kNumSpanComps; ++c) {
      sum += cp.components[c];
    }
    ASSERT_EQ(sum, cp.e2e)
        << "components do not sum to e2e:\n" << RenderTraceTree(trace);
    far_time += cp.components[static_cast<size_t>(SpanComp::kFarWait)] +
                cp.components[static_cast<size_t>(SpanComp::kFarService)];
  }
  EXPECT_GT(ended, 100u);
  EXPECT_GT(far_time, 0) << "no critical path ever crossed the far tier";
}

}  // namespace
}  // namespace gms
