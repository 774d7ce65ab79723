// Tests for the node/OS-facing contract of the cache engine: the EvictDirty
// default (dirty pages go to disk unless a policy opts in), and the `none`
// baseline ("native OSF/1") that every speedup in the paper is measured
// against. These are the semantics the node/OS layer relies on regardless of
// which policy is plugged in.
#include <gtest/gtest.h>

#include <memory>

#include "src/cluster/cluster.h"
#include "src/core/cache_engine.h"
#include "src/core/directory.h"
#include "src/core/local_lru_policy.h"
#include "src/core/memory_service.h"
#include "src/mem/frame_table.h"
#include "src/net/network.h"
#include "src/sim/cpu.h"
#include "src/sim/simulator.h"

namespace gms {
namespace {

// The service a `--policy=none` node gets, built the way the cluster builds
// it: one node with eight frames and no workload.
class NullMemoryServiceTest : public ::testing::Test {
 protected:
  static ClusterConfig NoneConfig() {
    ClusterConfig config;
    config.num_nodes = 1;
    config.policy = PolicyKind::kLocalLru;
    config.frames = 8;
    return config;
  }

  NullMemoryServiceTest() { cluster_.Start(); }

  Cluster cluster_{NoneConfig()};
  Simulator& sim_ = cluster_.sim();
  FrameTable& frames_ = cluster_.frames(NodeId{0});
  CacheEngine& svc_ = cluster_.service(NodeId{0});
};

TEST_F(NullMemoryServiceTest, GetPageAlwaysMissesAsynchronously) {
  const Uid uid = MakeAnonUid(NodeId{0}, 1, 0);
  bool fired = false;
  GetPageResult got;
  svc_.GetPage(uid, [&](GetPageResult r) {
    fired = true;
    got = r;
  });
  // The callback must never run inside GetPage itself (callers would
  // re-enter their own fault path); it fires from a simulator event.
  EXPECT_FALSE(fired);
  sim_.RunFor(Milliseconds(1));
  ASSERT_TRUE(fired);
  EXPECT_FALSE(got.hit);
  EXPECT_FALSE(got.duplicate);
  EXPECT_FALSE(got.dirty);
  EXPECT_EQ(svc_.stats().getpage_attempts, 1u);
  EXPECT_EQ(svc_.stats().getpage_misses, 1u);
  EXPECT_EQ(svc_.stats().getpage_hits, 0u);
}

TEST_F(NullMemoryServiceTest, GetPageResolvesOnTheCallersSpan) {
  // The miss lands back on the caller's fault span so disk fallback keeps
  // stamping there — the `none` service must pass the parent through
  // untouched rather than rooting a trace of its own.
  SpanRef parent;
  parent.trace = 0x1234;
  parent.span = 7;
  SpanRef landed;
  svc_.GetPage(MakeAnonUid(NodeId{0}, 1, 1),
               [&](GetPageResult r) { landed = r.span; }, parent);
  sim_.RunFor(Milliseconds(1));
  EXPECT_EQ(landed.trace, parent.trace);
  EXPECT_EQ(landed.span, parent.span);
}

TEST_F(NullMemoryServiceTest, EvictCleanFreesTheFrame) {
  const Uid uid = MakeAnonUid(NodeId{0}, 1, 2);
  Frame* frame = frames_.Allocate(uid, PageLocation::kLocal, sim_.now());
  ASSERT_NE(frame, nullptr);
  const uint32_t free_before = frames_.free_count();
  svc_.EvictClean(frame);
  EXPECT_EQ(frames_.free_count(), free_before + 1);
  EXPECT_EQ(frames_.Lookup(uid), nullptr);
}

TEST_F(NullMemoryServiceTest, OnPageLoadedIsANoOp) {
  const Uid uid = MakeAnonUid(NodeId{0}, 1, 3);
  Frame* frame = frames_.Allocate(uid, PageLocation::kLocal, sim_.now());
  ASSERT_NE(frame, nullptr);
  svc_.OnPageLoaded(frame);
  // No directory exists; the frame is untouched and nothing was counted.
  EXPECT_EQ(frames_.Lookup(uid), frame);
  EXPECT_EQ(svc_.stats().getpage_attempts, 0u);
  EXPECT_EQ(svc_.stats().putpages_sent, 0u);
}

TEST_F(NullMemoryServiceTest, EvictDirtyDefaultsToDiskWriteBack) {
  // The policy default: the service declines the dirty frame, the caller
  // performs the ordinary disk write-back. The frame must NOT be
  // freed — the caller still owns it until the write completes.
  const Uid uid = MakeAnonUid(NodeId{0}, 1, 4);
  Frame* frame = frames_.Allocate(uid, PageLocation::kLocal, sim_.now());
  ASSERT_NE(frame, nullptr);
  frame->set_dirty(true);
  EXPECT_FALSE(svc_.EvictDirty(frame));
  EXPECT_EQ(frames_.Lookup(uid), frame);
  EXPECT_TRUE(frame->dirty());
}

TEST_F(NullMemoryServiceTest, ResetStatsClearsCounters) {
  svc_.GetPage(MakeAnonUid(NodeId{0}, 1, 5), [](GetPageResult) {});
  sim_.RunFor(Milliseconds(1));
  ASSERT_EQ(svc_.stats().getpage_attempts, 1u);
  svc_.ResetStats();
  EXPECT_EQ(svc_.stats().getpage_attempts, 0u);
  EXPECT_EQ(svc_.stats().getpage_misses, 0u);
}

TEST_F(NullMemoryServiceTest, NoteFillRoutesToThePerTierCounter) {
  svc_.NoteFill(FillSource::kZero);
  svc_.NoteFill(FillSource::kFarMemory);
  svc_.NoteFill(FillSource::kFarMemory);
  svc_.NoteFill(FillSource::kLocalDisk);
  svc_.NoteFill(FillSource::kNfs);
  svc_.NoteFarPromotion();
  EXPECT_EQ(svc_.stats().fills_zero, 1u);
  EXPECT_EQ(svc_.stats().fills_far, 2u);
  EXPECT_EQ(svc_.stats().fills_disk, 1u);
  EXPECT_EQ(svc_.stats().fills_nfs, 1u);
  EXPECT_EQ(svc_.stats().far_promotions, 1u);
}

// ResetStats is struct re-assignment, so a newly added field would survive a
// reset only if someone replaced that with member-by-member clearing; this
// locks the full wipe of the memory-hierarchy counters. (Histogram clearing
// after real GMS traffic is locked at cluster level in tier_test.cc — the
// local short-circuit path never records the latency histograms.)
TEST_F(NullMemoryServiceTest, ResetStatsClearsTierCounters) {
  svc_.NoteFill(FillSource::kZero);
  svc_.NoteFill(FillSource::kFarMemory);
  svc_.NoteFill(FillSource::kLocalDisk);
  svc_.NoteFill(FillSource::kNfs);
  svc_.NoteFarPromotion();
  ASSERT_EQ(svc_.stats().fills_far, 1u);
  svc_.ResetStats();
  EXPECT_EQ(svc_.stats().getpage_hit_ns.count(), 0u);
  EXPECT_EQ(svc_.stats().getpage_miss_ns.count(), 0u);
  EXPECT_EQ(svc_.stats().fills_zero, 0u);
  EXPECT_EQ(svc_.stats().fills_far, 0u);
  EXPECT_EQ(svc_.stats().fills_disk, 0u);
  EXPECT_EQ(svc_.stats().fills_nfs, 0u);
  EXPECT_EQ(svc_.stats().demotions_far, 0u);
  EXPECT_EQ(svc_.stats().far_promotions, 0u);
}

// The engine delegates EvictDirty straight to the policy, and the policy
// interface's own default is the same "write it back yourself" answer —
// a policy that never heard of dirty globals composes with the engine into
// "write it back yourself".
TEST(CacheEngineEvictDirtyTest, PolicyDefaultDeclinesDirtyFrames) {
  Simulator sim;
  Network net(&sim, 1);
  Cpu cpu(&sim);
  FrameTable frames(8);
  CacheEngine engine(&sim, &net, &cpu, &frames, NodeId{0}, EngineConfig{},
                     std::make_unique<LocalLruPolicy>());
  engine.Start(std::make_shared<const PodTable>(Pod::Build(1, {NodeId{0}})));
  const Uid uid = MakeAnonUid(NodeId{0}, 1, 0);
  Frame* frame = frames.Allocate(uid, PageLocation::kLocal, sim.now());
  ASSERT_NE(frame, nullptr);
  frame->set_dirty(true);
  EXPECT_FALSE(engine.EvictDirty(frame));
  EXPECT_EQ(frames.Lookup(uid), frame);
}

// The no-remote-cache short circuit that `--policy=local` and `--policy=none`
// share, on a bare engine: an asynchronous miss on the caller's span, counted
// once, with nothing on the wire.
TEST(CacheEngineEvictDirtyTest, LocalPolicyGetPageMatchesNullService) {
  Simulator sim;
  Network net(&sim, 1);
  Cpu cpu(&sim);
  FrameTable frames(8);
  CacheEngine engine(&sim, &net, &cpu, &frames, NodeId{0}, EngineConfig{},
                     std::make_unique<LocalLruPolicy>());
  engine.Start(std::make_shared<const PodTable>(Pod::Build(1, {NodeId{0}})));
  bool fired = false;
  GetPageResult got;
  SpanRef parent;
  parent.trace = 0x42;
  parent.span = 3;
  engine.GetPage(MakeAnonUid(NodeId{0}, 1, 0),
                 [&](GetPageResult r) {
                   fired = true;
                   got = r;
                 },
                 parent);
  EXPECT_FALSE(fired);  // asynchronous, like every real service
  sim.RunFor(Milliseconds(1));
  ASSERT_TRUE(fired);
  EXPECT_FALSE(got.hit);
  EXPECT_EQ(got.span.trace, parent.trace);
  EXPECT_EQ(got.span.span, parent.span);
  EXPECT_EQ(engine.stats().getpage_attempts, 1u);
  EXPECT_EQ(engine.stats().getpage_misses, 1u);
  // No directory traffic was generated: nothing on the wire at all.
  EXPECT_EQ(net.total_traffic().events, 0u);
}

}  // namespace
}  // namespace gms
