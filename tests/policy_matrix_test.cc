// End-to-end smoke over every registered replacement policy: the same
// overflow workload (one small node spilling into two idle donors) must run
// to completion, quiesce, and keep the node-level accounting consistent
// under each policy. This is the seam's contract — a policy added to the
// registry is a policy the whole cluster stack can drive.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>

#include "src/cluster/cluster.h"
#include "src/cluster/policy_registry.h"
#include "src/core/directory.h"
#include "src/workload/patterns.h"

namespace gms {
namespace {

// gtest prints a parameter's bytes into its ctest name, so the padding after
// `remote_cache` is an explicit zeroed field: the names stay the same from
// build to build.
struct MatrixCase {
  PolicyKind policy;
  bool remote_cache;  // does the policy serve getpage hits from peers?
  uint8_t pad[3] = {};
};
static_assert(sizeof(MatrixCase) == 8, "matrix ctest names print 8 bytes");

// Working set ~3x node 0's memory, revisited several times: plenty of
// evictions (putpage/forward/drop traffic) and re-faults (getpage).
constexpr uint64_t kFootprint = 192;
constexpr uint64_t kAccesses = kFootprint * 6;

class PolicyMatrixTest : public ::testing::TestWithParam<MatrixCase> {
 protected:
  // One small busy node (0) and two idle donors, with the overflow workload
  // started on node 0.
  static std::unique_ptr<Cluster> StartOverflowCluster(PolicyKind policy) {
    ClusterConfig config;
    config.num_nodes = 3;
    config.policy = policy;
    config.frames_per_node = {64, 512, 512};
    config.frames = 64;
    config.seed = 7;
    auto cluster = std::make_unique<Cluster>(config);
    cluster->Start();
    cluster->AddWorkload(
        NodeId{0},
        std::make_unique<UniformRandomPattern>(
            PageSet{MakeAnonUid(NodeId{0}, 1, 0), kFootprint}, kAccesses,
            Microseconds(30), /*write_fraction=*/0.2),
        "overflow");
    cluster->StartWorkloads();
    return cluster;
  }
};

TEST_P(PolicyMatrixTest, OverflowWorkloadCompletesAndQuiesces) {
  const MatrixCase& c = GetParam();
  auto owned = StartOverflowCluster(c.policy);
  Cluster& cluster = *owned;
  ASSERT_TRUE(cluster.RunUntilWorkloadsDone(Seconds(120)));
  EXPECT_TRUE(cluster.RunUntilQuiescent(Seconds(10)));

  const Cluster::Totals t = cluster.totals();
  EXPECT_EQ(t.accesses, kAccesses);
  EXPECT_GT(t.faults, 0u);
  // Every remote hit and every disk read was triggered by some fault (the
  // remainder are first-touch zero-fills of anonymous pages).
  EXPECT_LE(t.getpage_hits + t.disk_reads, t.faults);

  const MemoryServiceStats& s0 = cluster.service(NodeId{0}).stats();
  EXPECT_EQ(s0.getpage_attempts, s0.getpage_hits + s0.getpage_misses);
  if (c.remote_cache) {
    // A policy with a global cache must actually use it on this workload.
    EXPECT_GT(t.getpage_hits, 0u)
        << PolicyName(c.policy) << " never served a remote hit";
    EXPECT_GT(s0.putpages_sent, 0u)
        << PolicyName(c.policy) << " never exported an evicted page";
  } else {
    // The baselines must generate no cluster-memory traffic at all.
    EXPECT_EQ(t.getpage_hits, 0u);
    EXPECT_EQ(s0.putpages_sent, 0u);
  }
}

// A donor crashes mid-run and reboots with empty memory: the busy node's
// getpages to it time out or miss, and the workload still finishes with every
// miss filled from exactly one tier. Under `local` the crash path is the
// engine's SetAlive; under gms the reboot builds a fresh agent that rejoins
// through the master.
TEST_P(PolicyMatrixTest, DonorCrashAndRestartMidRunCompletes) {
  const MatrixCase& c = GetParam();
  auto owned = StartOverflowCluster(c.policy);
  Cluster& cluster = *owned;
  cluster.sim().RunFor(Milliseconds(200));
  ASSERT_FALSE(cluster.AllWorkloadsFinished()) << "crash would miss the run";
  cluster.CrashNode(NodeId{1});
  cluster.sim().RunFor(Milliseconds(200));
  cluster.RestartNode(NodeId{1});
  ASSERT_TRUE(cluster.RunUntilWorkloadsDone(Seconds(120)));
  EXPECT_TRUE(cluster.RunUntilQuiescent(Seconds(10)));

  EXPECT_EQ(cluster.totals().accesses, kAccesses);
  for (uint32_t n = 0; n < cluster.num_nodes(); n++) {
    const MemoryServiceStats& s = cluster.service(NodeId{n}).stats();
    EXPECT_EQ(s.fills_zero + s.fills_far + s.fills_disk + s.fills_nfs,
              s.getpage_misses)
        << PolicyName(c.policy) << " node " << n;
  }
}

TEST(PolicyRegistryTest, NamesRoundTrip) {
  // Every kind the registry exposes parses back to itself, so --policy
  // flags, CI matrix entries, and printed headers stay in sync.
  for (const char* name : {"gms", "nchance", "local", "ensemble"}) {
    auto kind = ParsePolicyName(name);
    ASSERT_TRUE(kind.has_value()) << name;
    EXPECT_STREQ(PolicyName(*kind), name);
  }
  // "none" (the paper's native OSF/1 runs) is an alias of the local engine.
  EXPECT_EQ(ParsePolicyName("none"), PolicyKind::kLocalLru);
  // Deleted policies are rejected like any unknown name.
  for (const char* name : {"lfu", "adaptive", "lru", ""}) {
    EXPECT_FALSE(ParsePolicyName(name).has_value()) << name;
  }
  // The help string mentions every parseable name.
  const std::string known = KnownPolicyNames();
  for (const char* name : {"gms", "nchance", "local", "ensemble", "none"}) {
    EXPECT_NE(known.find(name), std::string::npos) << known;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyMatrixTest,
    ::testing::Values(MatrixCase{PolicyKind::kGms, true},
                      MatrixCase{PolicyKind::kNchance, true},
                      MatrixCase{PolicyKind::kEnsemble, true},
                      MatrixCase{PolicyKind::kLocalLru, false}),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      std::string name = PolicyName(info.param.policy);
      name[0] = static_cast<char>(std::toupper(name[0]));
      return name;
    });

}  // namespace
}  // namespace gms
