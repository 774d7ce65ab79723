// Chaos soak: randomized fault-injection sweeps over seeds x loss rates x a
// partition schedule, driving getpage/putpage/epoch/membership traffic with
// the protocol retry layer enabled, then quiescing and running the cluster
// invariant checker. The contract under test: an imperfect interconnect may
// cost performance, but never pages — no page ends up duplicated in global
// memory, no dirty page becomes unreachable, every workload op completes,
// and the network's conservation law holds exactly.
//
// Also here: the golden determinism test (two runs of the same chaos
// scenario with the same seed produce byte-identical stats dumps) and a
// membership-churn scenario (crash + rejoin under loss with heartbeats on).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>

#include "src/cluster/chaos_scenario.h"
#include "src/cluster/cluster.h"
#include "src/cluster/invariants.h"
#include "src/workload/patterns.h"

namespace gms {
namespace {

// One soak point. gtest_discover_tests appends gtest's print of the
// parameter to each ctest name, and a type with no PrintTo prints as its size
// and raw bytes ("48-byte object <01-00 ...>"). The soak names have always
// carried a 48-byte parameter; padding the point to that size here keeps them
// stable whatever fields ChaosCase gains or loses (up to 48 bytes).
struct SoakPoint {
  ChaosCase chaos;
  unsigned char name_pad[48 - sizeof(ChaosCase)] = {};
};
static_assert(sizeof(SoakPoint) == 48, "soak ctest names print 48 bytes");

std::string CaseName(const ::testing::TestParamInfo<SoakPoint>& info) {
  const ChaosCase& chaos = info.param.chaos;
  std::ostringstream out;
  // 0.001 -> "Loss0p1pct" style (permille avoids '.' in test names).
  out << "Seed" << chaos.seed << "Loss"
      << static_cast<int>(chaos.loss * 1000 + 0.5) << "permille";
  if (chaos.epoch_fanout > 0) {
    out << "Fanout" << chaos.epoch_fanout;
  }
  return out.str();
}

// BuildChaosCluster and ChaosStatsDump live in src/cluster/chaos_scenario.h
// so the bench/sweep soak driver and the sweep determinism test run the
// exact same universe as this soak.

class ChaosSoakTest : public ::testing::TestWithParam<SoakPoint> {};

TEST_P(ChaosSoakTest, InvariantsHoldAfterFaultyRun) {
  const ChaosCase& chaos = GetParam().chaos;
  auto cluster = BuildChaosCluster(chaos);
  cluster->StartWorkloads();
  ASSERT_TRUE(cluster->RunUntilWorkloadsDone(Seconds(600)))
      << "workloads hung: an op was lost under faults";
  ASSERT_TRUE(cluster->RunUntilQuiescent(Seconds(30)))
      << "protocol never quiesced (stuck retry loop?)";

  InvariantReport report = ClusterInvariantChecker::Check(*cluster);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.frames_checked, 0u);
  EXPECT_GT(report.entries_checked, 0u);

  // Every issued access completed exactly once: nothing lost, nothing run
  // twice (the workload driver counts completions against issues).
  EXPECT_EQ(cluster->totals().accesses, 6000u + 5000u + 5000u);

  // The fault layer actually did something in lossy runs — the soak is not
  // vacuously passing on a clean network.
  const NetworkFaultStats& fs = cluster->net().fault_stats();
  if (chaos.loss > 0) {
    EXPECT_GT(fs.drops_injected.events, 0u);
    const MemoryServiceStats& s0 = cluster->service(NodeId{0}).stats();
    const MemoryServiceStats& s1 = cluster->service(NodeId{1}).stats();
    EXPECT_GT(s0.control_retries + s1.control_retries + s0.getpage_retries +
                  s1.getpage_retries,
              0u);
  }
  // The partition cut real traffic in every run.
  EXPECT_GT(fs.drops_partition.events, 0u);

  // Tree-epoch runs must have exercised the aggregation path for real:
  // partials flowed upward, and every node ended the run on the same epoch
  // (whatever faults did to individual rounds, the cluster converged).
  if (chaos.epoch_fanout > 0) {
    uint64_t partials_sent = 0;
    for (uint32_t i = 0; i < cluster->num_nodes(); i++) {
      partials_sent +=
          cluster->service(NodeId{i}).stats().epoch_partials_sent;
    }
    EXPECT_GT(partials_sent, 0u) << "tree mode never sent a partial";
    uint64_t lo = UINT64_MAX;
    uint64_t hi = 0;
    for (uint32_t i = 0; i < cluster->num_nodes(); i++) {
      const uint64_t e = cluster->gms_agent(NodeId{i})->epoch_view().epoch;
      lo = std::min(lo, e);
      hi = std::max(hi, e);
    }
    EXPECT_GE(lo, 1u);
    // At most one round of skew: a node may miss the final round's params
    // (exactly as in flat mode under loss), but never wedges further behind.
    EXPECT_LE(hi - lo, 1u) << "epochs diverged [" << lo << ", " << hi << "]";
  }
}

std::vector<SoakPoint> MakeSweep() {
  std::vector<SoakPoint> cases;
  for (uint64_t seed = 1; seed <= 20; seed++) {
    for (double loss : {0.0, 0.001, 0.01, 0.05}) {
      cases.push_back(SoakPoint{ChaosCase{seed, loss}});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChaosSoakTest,
                         ::testing::ValuesIn(MakeSweep()), CaseName);

// The same soak with hierarchical epoch aggregation: every EpochSummaryReq
// relay, EpochPartial, and EpochParams relay rides the same lossy network —
// dropped and duplicated partials, straggler timeouts, and the root's flat
// re-request sweep all fire across the sweep. Fanout 2 on the 4-node
// scenario gives a two-level tree (the deepest this membership allows).
std::vector<SoakPoint> MakeTreeSweep() {
  std::vector<SoakPoint> cases;
  for (uint64_t seed = 1; seed <= 8; seed++) {
    for (double loss : {0.0, 0.01, 0.05}) {
      ChaosCase c{seed, loss};
      c.epoch_fanout = 2;
      cases.push_back(SoakPoint{c});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(TreeEpochSweep, ChaosSoakTest,
                         ::testing::ValuesIn(MakeTreeSweep()), CaseName);

// Control: the same cluster and workloads with no faults and no partition
// must be near-perfectly consistent after quiesce. If this accumulates
// staleness, the protocol (not the fault layer) is leaking.
TEST(ChaosBaselineTest, FaultFreeRunIsClean) {
  auto cluster = BuildChaosCluster(ChaosCase{18, 0.0}, /*with_partition=*/false);
  cluster->StartWorkloads();
  ASSERT_TRUE(cluster->RunUntilWorkloadsDone(Seconds(600)));
  ASSERT_TRUE(cluster->RunUntilQuiescent(Seconds(30)));
  InvariantReport report = ClusterInvariantChecker::Check(*cluster);
  EXPECT_TRUE(report.ok()) << report.ToString();
  std::cout << "baseline: " << report.stale_hints << " hints, "
            << report.unlisted_frames << " unlisted, "
            << report.entries_checked << " entries\n";
}

// Two runs of the same chaos scenario with the same seed must be
// bit-identical — fault injection draws from its own seeded stream, so a
// faulty universe is as reproducible as a clean one.
TEST(ChaosDeterminismTest, SameSeedSameUniverse) {
  const ChaosCase chaos{7, 0.01};
  std::string dumps[2];
  for (int run = 0; run < 2; run++) {
    auto cluster = BuildChaosCluster(chaos);
    cluster->StartWorkloads();
    ASSERT_TRUE(cluster->RunUntilWorkloadsDone(Seconds(600)));
    ASSERT_TRUE(cluster->RunUntilQuiescent(Seconds(30)));
    dumps[run] = ChaosStatsDump(*cluster);
  }
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_FALSE(dumps[0].empty());
}

TEST(ChaosDeterminismTest, DifferentSeedsDiverge) {
  std::string dumps[2];
  uint64_t seeds[2] = {11, 12};
  for (int run = 0; run < 2; run++) {
    auto cluster = BuildChaosCluster(ChaosCase{seeds[run], 0.01});
    cluster->StartWorkloads();
    ASSERT_TRUE(cluster->RunUntilWorkloadsDone(Seconds(600)));
    ASSERT_TRUE(cluster->RunUntilQuiescent(Seconds(30)));
    dumps[run] = ChaosStatsDump(*cluster);
  }
  // Sanity: the dump is sensitive enough to distinguish universes.
  EXPECT_NE(dumps[0], dumps[1]);
}

// Membership churn under loss: a node crashes mid-run (its global pages and
// GCD section vanish), the master removes it via heartbeats, it reboots and
// rejoins — all while workloads run over a lossy network. Afterwards the
// cluster must agree on membership and pass the full invariant check.
TEST(ChaosMembershipTest, CrashAndRejoinUnderLoss) {
  ClusterConfig config;
  config.num_nodes = 4;
  config.policy = PolicyKind::kGms;
  config.frames_per_node = {256, 320, 1024, 768};
  config.frames = 256;
  config.seed = 42;
  config.gms.epoch.t_min = Milliseconds(200);
  config.gms.epoch.t_max = Seconds(2);
  config.gms.epoch.m_min = 16;
  config.gms.epoch.summary_timeout = Milliseconds(100);
  config.gms.retry.enabled = true;
  config.gms.enable_heartbeats = true;
  config.gms.heartbeat_interval = Milliseconds(200);
  // Heartbeats are fire-and-forget; a higher miss limit keeps 0.1% loss from
  // producing false deaths (P ~ loss^limit).
  config.gms.heartbeat_miss_limit = 4;
  auto cluster = std::make_unique<Cluster>(config);

  cluster->net().EnableFaultInjection(0xc4a05);
  FaultSpec faults;
  faults.drop = 0.001;
  faults.duplicate = 0.0005;
  faults.delay_jitter = Microseconds(200);
  cluster->net().SetDefaultFaults(faults);

  cluster->Start();
  cluster->AddWorkload(
      NodeId{0},
      std::make_unique<UniformRandomPattern>(
          PageSet{MakeFileUid(NodeId{0}, 1, 0), 700}, 9000, Microseconds(60),
          0.1),
      "w0");
  cluster->AddWorkload(
      NodeId{1},
      std::make_unique<ZipfPattern>(PageSet{MakeAnonUid(NodeId{1}, 2, 0), 600},
                                    7000, Microseconds(60), 0.6, 0.2),
      "w1");
  cluster->StartWorkloads();

  // Let global memory fill, then kill the big idle donor mid-traffic.
  cluster->sim().RunFor(Milliseconds(250));
  cluster->CrashNode(NodeId{2});
  // Heartbeats detect the death and reconfigure; survivors republish.
  cluster->sim().RunFor(Seconds(2));
  EXPECT_FALSE(cluster->gms_agent(NodeId{0})->pod().IsLive(NodeId{2}));
  // Reboot: the node rejoins with empty memory through the master.
  cluster->RestartNode(NodeId{2});

  ASSERT_TRUE(cluster->RunUntilWorkloadsDone(Seconds(600)));
  ASSERT_TRUE(cluster->RunUntilQuiescent(Seconds(30)));

  for (uint32_t i = 0; i < 4; i++) {
    EXPECT_TRUE(cluster->gms_agent(NodeId{i})->pod().IsLive(NodeId{2}))
        << "node " << i << " never saw the rejoin";
  }
  InvariantReport report = ClusterInvariantChecker::Check(*cluster);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(cluster->totals().accesses, 9000u + 7000u);
}

// A rebooted node whose JoinReq is lost must keep asking. Node 2 restarts on
// the far side of a scripted partition from the master, so its first JoinReq
// (and the first retry) is dropped; the bounded join retry lands once the
// partition heals, and the node ends up live in every node's POD.
TEST(ChaosMembershipTest, JoinRetriedAcrossPartitionToMaster) {
  ClusterConfig config;
  config.num_nodes = 3;
  config.policy = PolicyKind::kGms;
  config.frames = 256;
  config.seed = 3;
  config.gms.retry.enabled = true;
  auto cluster = std::make_unique<Cluster>(config);
  cluster->Start();
  cluster->sim().RunFor(Milliseconds(100));
  cluster->CrashNode(NodeId{2});
  cluster->sim().RunFor(Milliseconds(50));

  // Join retries back off 10 ms, then 20 ms: a 25 ms partition swallows the
  // JoinReq and the first retry, and heals before the second.
  const SimTime cut = cluster->sim().now() + Milliseconds(1);
  cluster->net().SchedulePartition(cut, Milliseconds(25), {NodeId{2}});
  cluster->sim().RunFor(Milliseconds(2));
  cluster->RestartNode(NodeId{2});
  cluster->sim().RunFor(Milliseconds(20));
  ASSERT_TRUE(cluster->net().Partitioned(NodeId{2}, NodeId{0}));
  EXPECT_EQ(cluster->gms_agent(NodeId{2})->pod().version(), 0u)
      << "node 2 adopted a POD through the partition";

  ASSERT_TRUE(cluster->RunUntilQuiescent(Seconds(10)));
  EXPECT_GT(cluster->net().fault_stats().drops_partition.events, 0u);
  EXPECT_GT(cluster->service(NodeId{2}).stats().control_retries, 0u);
  EXPECT_EQ(cluster->service(NodeId{2}).stats().control_give_ups, 0u);
  const uint64_t version = cluster->gms_agent(NodeId{0})->pod().version();
  for (uint32_t i = 0; i < 3; i++) {
    const Pod& pod = cluster->gms_agent(NodeId{i})->pod();
    EXPECT_TRUE(pod.IsLive(NodeId{2})) << "node " << i;
    EXPECT_EQ(pod.version(), version) << "node " << i;
  }
  InvariantReport report = ClusterInvariantChecker::Check(*cluster);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// An interior aggregator crashing takes its whole subtree's partial down
// with it: its children's relayed requests are orphaned and its own merged
// partial never reaches the root. The root's straggler timeout plus the flat
// re-request sweep must recover every orphaned node's summary, and once
// heartbeats remove the corpse from the membership, later rounds rebuild the
// tree without it. Nine nodes at fanout 2 put two full levels under the
// crashed node (node 1's subtree is {1, 3, 4, 7, 8} — over half the
// cluster).
TEST(ChaosTreeEpochTest, InteriorAggregatorCrashMidEpoch) {
  ClusterConfig config;
  config.num_nodes = 9;
  config.policy = PolicyKind::kGms;
  config.frames = 256;
  config.seed = 21;
  config.gms.epoch.t_min = Milliseconds(200);
  config.gms.epoch.t_max = Seconds(1);
  config.gms.epoch.m_min = 16;
  config.gms.epoch.summary_timeout = Milliseconds(100);
  config.gms.epoch.fanout = 2;
  config.gms.retry.enabled = true;
  config.gms.enable_heartbeats = true;
  config.gms.heartbeat_interval = Milliseconds(200);
  config.gms.heartbeat_miss_limit = 2;
  auto cluster = std::make_unique<Cluster>(config);

  // Jitter keeps collection rounds in flight long enough that the crash
  // lands mid-epoch; no drops, so every lost summary is the crash's doing.
  cluster->net().EnableFaultInjection(0xdead1);
  FaultSpec faults;
  faults.delay_jitter = Milliseconds(40);
  cluster->net().SetDefaultFaults(faults);

  cluster->Start();
  cluster->sim().RunFor(Milliseconds(250));
  cluster->CrashNode(NodeId{1});
  cluster->sim().RunFor(Seconds(6));
  ASSERT_TRUE(cluster->RunUntilQuiescent(Seconds(30)));

  // Every round between the crash and the membership update ran with a dead
  // interior: the root must have fallen back to direct re-requests at least
  // once rather than planning without the orphaned subtree.
  EXPECT_GT(cluster->service(NodeId{0}).stats().control_retries, 0u)
      << "the re-request sweep never fired";
  EXPECT_FALSE(cluster->gms_agent(NodeId{0})->pod().IsLive(NodeId{1}));

  const EpochView& root_view = cluster->gms_agent(NodeId{0})->epoch_view();
  EXPECT_GE(root_view.epoch, 2u) << "epochs stopped advancing after the crash";
  for (uint32_t i = 2; i < 9; i++) {
    const EpochView& v = cluster->gms_agent(NodeId{i})->epoch_view();
    // A round may be mid-distribution at the measurement instant, so allow
    // one epoch of skew; a node that actually agrees with the root must
    // agree on the whole plan.
    EXPECT_LE(root_view.epoch - v.epoch, 1u) << "node " << i << " wedged";
    if (v.epoch == root_view.epoch) {
      EXPECT_EQ(v.min_age, root_view.min_age) << "node " << i;
      EXPECT_EQ(v.budget, root_view.budget) << "node " << i;
    }
    // The orphaned subtree's survivors ({3, 4, 7, 8}) kept contributing:
    // an idle node's free frames guarantee it weight in any plan it is
    // part of, so a zero weight here means its summary was dropped.
    EXPECT_GT(v.my_weight, 0) << "node " << i << " fell out of the epoch";
  }

  InvariantReport report = ClusterInvariantChecker::Check(*cluster);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

}  // namespace
}  // namespace gms
