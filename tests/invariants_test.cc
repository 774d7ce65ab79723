// The cluster invariant checker can fail: on a small quiesced gms cluster
// whose checker report is clean, each test breaks exactly one thing through
// the public API (a frame table, a crash, the network) and asserts that the
// checker reports exactly the violation that break implies, and nothing
// else. A checker that never fires proves nothing about the soak tests that
// rely on it.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/cluster/cluster.h"
#include "src/cluster/invariants.h"
#include "src/core/directory.h"
#include "src/core/messages.h"
#include "src/workload/patterns.h"

namespace gms {
namespace {

// One small busy node (0) overflowing into two idle donors, run to
// completion and quiesced. Node 0's pages are private anonymous pages, so
// node 0 owns every GCD entry and the donors' frames are all global copies
// node 0's directory lists.
std::unique_ptr<Cluster> QuiescedCluster() {
  ClusterConfig config;
  config.num_nodes = 3;
  config.policy = PolicyKind::kGms;
  config.frames_per_node = {64, 512, 512};
  config.frames = 64;
  config.seed = 7;
  auto cluster = std::make_unique<Cluster>(config);
  cluster->Start();
  cluster->AddWorkload(
      NodeId{0},
      std::make_unique<UniformRandomPattern>(
          PageSet{MakeAnonUid(NodeId{0}, 1, 0), 192}, 192 * 6,
          Microseconds(30), /*write_fraction=*/0.0),
      "overflow");
  cluster->StartWorkloads();
  EXPECT_TRUE(cluster->RunUntilWorkloadsDone(Seconds(120)));
  EXPECT_TRUE(cluster->RunUntilQuiescent(Seconds(10)));
  return cluster;
}

bool Contains(const std::string& s, const std::string& part) {
  return s.find(part) != std::string::npos;
}

// Any global page cached on `node`.
const Frame* SomeGlobalFrame(Cluster& cluster, NodeId node) {
  const Frame* found = nullptr;
  cluster.frames(node).ForEach([&](const Frame& f) {
    if (found == nullptr && f.location() == PageLocation::kGlobal) {
      found = &f;
    }
  });
  return found;
}

TEST(InvariantCheckerTest, QuiescedClusterIsClean) {
  auto cluster = QuiescedCluster();
  const InvariantReport report = ClusterInvariantChecker::Check(*cluster);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.entries_checked, 0u);
  EXPECT_GT(report.frames_checked, 0u);
}

TEST(InvariantCheckerTest, SecondGlobalCopyIsReported) {
  auto cluster = QuiescedCluster();
  const Frame* original = SomeGlobalFrame(*cluster, NodeId{1});
  ASSERT_NE(original, nullptr) << "node 1 absorbed no global page";
  const Uid uid = original->uid();
  ASSERT_NE(cluster->frames(NodeId{2}).Allocate(uid, PageLocation::kGlobal,
                                                cluster->sim().now()),
            nullptr);

  const InvariantReport report = ClusterInvariantChecker::Check(*cluster);
  ASSERT_EQ(report.violations.size(), 1u) << report.ToString();
  EXPECT_TRUE(Contains(report.violations[0],
                       "page " + uid.ToString() + " has 2 global copies"))
      << report.violations[0];
  // The stray copy is also unlisted, but one clean frame is tolerated.
  EXPECT_EQ(report.unlisted_frames, 1u);
}

TEST(InvariantCheckerTest, CrashedGcdHolderIsReported) {
  auto cluster = QuiescedCluster();
  // Heartbeats are off, so nobody removes the crashed node from the POD and
  // node 0's directory keeps listing it.
  uint64_t listed_on_2 = 0;
  cluster->service(NodeId{0}).gcd().ForEach(
      [&](const Uid&, const GcdTable::Entry& entry) {
        for (const GcdTable::Holder& h : entry.holders) {
          listed_on_2 += h.node == NodeId{2};
        }
      });
  ASSERT_GT(listed_on_2, 0u) << "node 2 holds nothing to lose";
  cluster->CrashNode(NodeId{2});

  const InvariantReport report = ClusterInvariantChecker::Check(*cluster);
  EXPECT_EQ(report.violations.size(), listed_on_2) << report.ToString();
  for (const std::string& v : report.violations) {
    EXPECT_TRUE(Contains(v, "gcd on node 0:")) << v;
    EXPECT_TRUE(Contains(v, "lists holder node 2, which is not a live member"))
        << v;
  }
}

TEST(InvariantCheckerTest, UnlistedDirtyGlobalFrameIsReported) {
  auto cluster = QuiescedCluster();
  // A dirty global copy of a node-0 page that node 0's directory never
  // heard of: nobody would write it back.
  const Uid uid = MakeAnonUid(NodeId{0}, 9, 0);
  Frame* frame = cluster->frames(NodeId{2}).Allocate(
      uid, PageLocation::kGlobal, cluster->sim().now());
  ASSERT_NE(frame, nullptr);
  frame->set_dirty(true);

  const InvariantReport report = ClusterInvariantChecker::Check(*cluster);
  ASSERT_EQ(report.violations.size(), 1u) << report.ToString();
  EXPECT_TRUE(Contains(report.violations[0],
                       "dirty global page " + uid.ToString() +
                           " on node 2 is unreachable: no gcd entry on owner 0"))
      << report.violations[0];
}

TEST(InvariantCheckerTest, FloodOfUnlistedCleanFramesIsReported) {
  auto cluster = QuiescedCluster();
  const InvariantOptions opts;
  const InvariantReport before = ClusterInvariantChecker::Check(*cluster, opts);
  ASSERT_TRUE(before.ok()) << before.ToString();
  // One unlisted clean frame is a tolerated stale hint; enough of them to
  // pass stale_tolerance of everything checked means the directory protocol
  // lost track of pages.
  const uint64_t flood = 64;
  for (uint64_t i = 0; i < flood; i++) {
    ASSERT_NE(cluster->frames(NodeId{1}).Allocate(MakeAnonUid(NodeId{1}, 9, i),
                                                  PageLocation::kLocal,
                                                  cluster->sim().now()),
              nullptr);
  }
  const uint64_t checked =
      before.entries_checked + before.frames_checked + flood;
  ASSERT_GT(flood, static_cast<uint64_t>(opts.stale_tolerance *
                                         static_cast<double>(checked)) + 2);

  const InvariantReport report = ClusterInvariantChecker::Check(*cluster, opts);
  ASSERT_EQ(report.violations.size(), 1u) << report.ToString();
  EXPECT_TRUE(Contains(report.violations[0], "stale directory entries"))
      << report.violations[0];
  EXPECT_TRUE(Contains(report.violations[0], "unlisted frames) exceed"))
      << report.violations[0];
  EXPECT_EQ(report.unlisted_frames, before.unlisted_frames + flood);
}

TEST(InvariantCheckerTest, DatagramInFlightIsReported) {
  auto cluster = QuiescedCluster();
  // A late getpage miss for an operation node 0 never issued: sent, not yet
  // received, and harmless once it lands.
  cluster->net().Send(Datagram{NodeId{1}, NodeId{0}, 64, kMsgGetPageMiss,
                               GetPageMiss{MakeAnonUid(NodeId{0}, 1, 0), 0,
                                           {}}});

  const InvariantReport report = ClusterInvariantChecker::Check(*cluster);
  ASSERT_EQ(report.violations.size(), 2u) << report.ToString();
  EXPECT_EQ(report.violations[0], "not quiescent: 1 datagrams in flight");
  // Sent but not yet received: the transmit side is one message ahead.
  EXPECT_TRUE(Contains(report.violations[1], "traffic imbalance"))
      << report.violations[1];

  // Once the datagram lands the books balance again.
  ASSERT_TRUE(cluster->RunUntilQuiescent(Seconds(1)));
  const InvariantReport after = ClusterInvariantChecker::Check(*cluster);
  EXPECT_TRUE(after.ok()) << after.ToString();
}

}  // namespace
}  // namespace gms
