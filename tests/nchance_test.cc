// Tests for the N-chance forwarding baseline: singlet/duplicate handling,
// recirculation, victim-selection order, and the documented contrasts with
// GMS (random targeting, duplicate displacement).
#include <gtest/gtest.h>

#include <memory>

#include "src/cluster/cluster.h"
#include "src/core/directory.h"
#include "src/workload/patterns.h"

namespace gms {
namespace {

class NchanceTest : public ::testing::Test {
 protected:
  void Build(std::vector<uint32_t> frames, uint64_t seed = 1) {
    ClusterConfig config;
    config.num_nodes = static_cast<uint32_t>(frames.size());
    config.policy = PolicyKind::kNchance;
    config.frames_per_node = std::move(frames);
    config.frames = 256;
    config.seed = seed;
    cluster_ = std::make_unique<Cluster>(config);
    cluster_->Start();
  }

  void Access(uint32_t node, const Uid& uid, bool write = false) {
    bool done = false;
    cluster_->node_os(NodeId{node}).Access(uid, write, [&] { done = true; });
    while (!done) {
      cluster_->sim().RunFor(Milliseconds(1));
    }
  }

  NchancePolicy& agent(uint32_t i) {
    return static_cast<NchancePolicy&>(*cluster_->service(NodeId{i}).policy());
  }
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(NchanceTest, SingletEvictionForwardsToRandomNode) {
  Build({64, 512, 512});
  const Uid uid = MakeAnonUid(NodeId{0}, 1, 0);
  Access(0, uid, /*write=*/false);
  Frame* frame = cluster_->frames(NodeId{0}).Lookup(uid);
  cluster_->service(NodeId{0}).EvictClean(frame);
  cluster_->sim().RunFor(Milliseconds(10));
  EXPECT_EQ(agent(0).nchance_stats().forwards_sent, 1u);
  // The page landed on exactly one peer, as a global page with count N.
  Frame* on1 = cluster_->frames(NodeId{1}).Lookup(uid);
  Frame* on2 = cluster_->frames(NodeId{2}).Lookup(uid);
  ASSERT_TRUE((on1 != nullptr) != (on2 != nullptr));
  Frame* remote = on1 != nullptr ? on1 : on2;
  EXPECT_EQ(remote->location(), PageLocation::kGlobal);
  EXPECT_EQ(remote->recirculation(), 2);
}

TEST_F(NchanceTest, DuplicateEvictionIsDropped) {
  Build({64, 512});
  const Uid uid = MakeFileUid(NodeId{1}, 9, 0);
  Access(1, uid);
  Access(0, uid);  // now duplicated on both nodes
  Frame* frame = cluster_->frames(NodeId{0}).Lookup(uid);
  ASSERT_TRUE(frame->duplicated());
  cluster_->service(NodeId{0}).EvictClean(frame);
  cluster_->sim().RunFor(Milliseconds(10));
  EXPECT_EQ(agent(0).nchance_stats().forwards_sent, 0u);
  EXPECT_EQ(cluster_->service(NodeId{0}).stats().discards_duplicate, 1u);
}

TEST_F(NchanceTest, RecirculationCountDropsPageAfterNHops) {
  // Two nodes only: every forward lands on the peer; evicting it there
  // consumes hops until the count runs out.
  Build({64, 64});
  const Uid uid = MakeAnonUid(NodeId{0}, 1, 0);
  Access(0, uid);
  Frame* frame = cluster_->frames(NodeId{0}).Lookup(uid);
  cluster_->service(NodeId{0}).EvictClean(frame);  // forward with N=2
  cluster_->sim().RunFor(Milliseconds(10));
  Frame* hop1 = cluster_->frames(NodeId{1}).Lookup(uid);
  ASSERT_NE(hop1, nullptr);
  EXPECT_EQ(hop1->recirculation(), 2);

  cluster_->service(NodeId{1}).EvictClean(hop1);  // hop consumed -> count 1
  cluster_->sim().RunFor(Milliseconds(10));
  Frame* hop2 = cluster_->frames(NodeId{0}).Lookup(uid);
  ASSERT_NE(hop2, nullptr);
  EXPECT_EQ(hop2->recirculation(), 1);

  cluster_->service(NodeId{0}).EvictClean(hop2);  // count exhausted -> drop
  cluster_->sim().RunFor(Milliseconds(10));
  EXPECT_EQ(cluster_->frames(NodeId{0}).Lookup(uid), nullptr);
  EXPECT_EQ(cluster_->frames(NodeId{1}).Lookup(uid), nullptr);
  EXPECT_GE(agent(0).nchance_stats().dropped_exhausted, 1u);
}

TEST_F(NchanceTest, ReceiverDisplacesOldestDuplicateFirst) {
  // Node 1's memory is full: half duplicates (shared with node 2), half
  // young singlets. An incoming forward must displace a duplicate, even
  // though the singlets' pages are younger.
  Build({64, 96, 512});
  // Fill node 1 with duplicated shared pages (served to node 2).
  for (uint32_t i = 0; i < 40; i++) {
    const Uid uid = MakeFileUid(NodeId{1}, 9, i);
    Access(1, uid);
    Access(2, uid);  // creates the duplicate
  }
  // Fill the rest with private singleton pages.
  uint32_t vpn = 0;
  while (cluster_->frames(NodeId{1}).free_count() > 4) {
    Access(1, MakeAnonUid(NodeId{1}, 5, vpn++));
  }
  const auto before = agent(1).nchance_stats();
  // Evict a singlet from node 0 repeatedly until a forward lands on node 1.
  for (uint32_t i = 0; i < 8; i++) {
    const Uid uid = MakeAnonUid(NodeId{0}, 1, 100 + i);
    Access(0, uid);
    cluster_->service(NodeId{0}).EvictClean(cluster_->frames(NodeId{0}).Lookup(uid));
    cluster_->sim().RunFor(Milliseconds(10));
  }
  const auto after = agent(1).nchance_stats();
  ASSERT_GT(after.forwards_received, before.forwards_received);
  EXPECT_GT(after.victims_duplicate, before.victims_duplicate);
}

TEST_F(NchanceTest, GetPageFindsForwardedPage) {
  Build({64, 512, 512});
  const Uid uid = MakeAnonUid(NodeId{0}, 1, 0);
  Access(0, uid);
  cluster_->service(NodeId{0}).EvictClean(cluster_->frames(NodeId{0}).Lookup(uid));
  cluster_->sim().RunFor(Milliseconds(10));
  const uint64_t hits_before = cluster_->service(NodeId{0}).stats().getpage_hits;
  Access(0, uid);
  EXPECT_EQ(cluster_->service(NodeId{0}).stats().getpage_hits, hits_before + 1);
}

TEST_F(NchanceTest, RandomTargetingSpreadsAcrossPeers) {
  Build({192, 1024, 1024, 1024, 1024});
  for (uint32_t i = 0; i < 400; i++) {
    Access(0, MakeAnonUid(NodeId{0}, 1, i));
  }
  cluster_->sim().RunFor(Milliseconds(100));
  // All four peers received some pages (random choice, no weighting).
  for (uint32_t peer = 1; peer <= 4; peer++) {
    EXPECT_GT(cluster_->frames(NodeId{peer}).global_count(), 10u)
        << "peer " << peer;
  }
}

TEST_F(NchanceTest, SingleNodeClusterDiscardsInsteadOfForwarding) {
  Build({64});
  const Uid uid = MakeAnonUid(NodeId{0}, 1, 0);
  Access(0, uid);
  cluster_->service(NodeId{0}).EvictClean(cluster_->frames(NodeId{0}).Lookup(uid));
  cluster_->sim().RunFor(Milliseconds(10));
  EXPECT_EQ(agent(0).nchance_stats().forwards_sent, 0u);
  EXPECT_EQ(cluster_->frames(NodeId{0}).Lookup(uid), nullptr);
}

}  // namespace
}  // namespace gms
