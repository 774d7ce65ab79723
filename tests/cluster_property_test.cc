// Cluster-wide property tests: system invariants checked after whole
// simulated runs, across seeds and policies (TEST_P sweeps).
//
//   * single-copy invariant: a page is global on at most one node,
//   * directory consistency: every GCD holder entry points at a node that
//     really caches the page (in a crash-free run),
//   * traffic conservation: every byte sent is received (crash-free),
//   * workload conservation: every issued op completes exactly once,
//   * determinism: equal seeds, equal universes; different seeds diverge.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "src/cluster/cluster.h"
#include "src/core/directory.h"
#include "src/workload/patterns.h"

namespace gms {
namespace {

// gtest prints a parameter's bytes into its ctest name, so the padding hole
// after `policy` is an explicit zeroed field: the names stay the same from
// build to build.
struct PropertyCase {
  PolicyKind policy;
  uint32_t pad = 0;
  uint64_t seed;
};
static_assert(sizeof(PropertyCase) == 16,
              "property ctest names print 16 bytes");

class ClusterPropertyTest : public ::testing::TestWithParam<PropertyCase> {
 protected:
  // A mixed cluster: two busy nodes with different footprints, two idle
  // nodes, one shared file in play.
  std::unique_ptr<Cluster> RunMixedCluster(uint64_t seed, PolicyKind policy) {
    ClusterConfig config;
    config.num_nodes = 4;
    config.policy = policy;
    config.frames_per_node = {256, 320, 1024, 768};
    config.frames = 256;
    config.seed = seed;
    config.gms.epoch.t_min = Milliseconds(200);
    config.gms.epoch.t_max = Seconds(2);
    config.gms.epoch.m_min = 16;
    auto cluster = std::make_unique<Cluster>(config);
    cluster->Start();

    cluster->AddWorkload(
        NodeId{0},
        std::make_unique<UniformRandomPattern>(
            PageSet{MakeFileUid(NodeId{0}, 1, 0), 700}, 8000,
            Microseconds(40), /*write_fraction=*/0.1),
        "w0");
    cluster->AddWorkload(
        NodeId{1},
        std::make_unique<InterleavePattern>(
            std::make_unique<SequentialPattern>(
                PageSet{MakeAnonUid(NodeId{1}, 2, 0), 500}, 6000,
                Microseconds(40), 0.3),
            std::make_unique<ZipfPattern>(
                PageSet{MakeFileUid(NodeId{2}, 9, 0), 400}, 6000,
                Microseconds(40), 0.6),
            0.5),
        "w1");
    cluster->StartWorkloads();
    EXPECT_TRUE(cluster->RunUntilWorkloadsDone());
    // Let in-flight putpages/GCD updates drain.
    cluster->sim().RunFor(Seconds(1));
    return cluster;
  }
};

TEST_P(ClusterPropertyTest, GlobalPagesHaveSingleCopy) {
  auto cluster = RunMixedCluster(GetParam().seed, GetParam().policy);
  std::map<Uid, int> global_copies;
  for (uint32_t n = 0; n < cluster->num_nodes(); n++) {
    cluster->frames(NodeId{n}).ForEach([&](const Frame& f) {
      if (f.location() == PageLocation::kGlobal) {
        global_copies[f.uid()]++;
      }
    });
  }
  for (const auto& [uid, copies] : global_copies) {
    EXPECT_EQ(copies, 1) << uid.ToString();
  }
}

TEST_P(ClusterPropertyTest, DirectoryPointsAtRealHolders) {
  if (GetParam().policy == PolicyKind::kLocalLru) {
    GTEST_SKIP() << "no directory registrations without a global cache";
  }
  auto cluster = RunMixedCluster(GetParam().seed, GetParam().policy);
  uint64_t entries = 0;
  uint64_t stale = 0;
  for (uint32_t n = 0; n < cluster->num_nodes(); n++) {
    CacheEngine* engine = &cluster->service(NodeId{n});
    const GcdTable* gcd = &engine->gcd();
    // Walk the directory via the frames of every node: for each cached page
    // whose GCD section is node n, the entry must list that holder.
    for (uint32_t holder = 0; holder < cluster->num_nodes(); holder++) {
      cluster->frames(NodeId{holder}).ForEach([&](const Frame& f) {
        if (engine->pod().GcdNodeFor(f.uid()) != NodeId{n}) {
          return;
        }
        entries++;
        const GcdTable::Entry* e = gcd->Lookup(f.uid());
        bool listed = false;
        if (e != nullptr) {
          for (const auto& h : e->holders) {
            listed |= (h.node == NodeId{holder});
          }
        }
        stale += !listed;
      });
    }
  }
  ASSERT_GT(entries, 0u);
  // Directory updates are asynchronous messages, so transiently-stale hints
  // are inherent (the paper tolerates them: a stale hint costs one disk
  // fallback and self-corrects on the next registration). Staleness must
  // stay marginal, though — under 1% of entries after a drained run.
  EXPECT_LE(stale * 100, entries);
}

TEST_P(ClusterPropertyTest, NetworkTrafficConserved) {
  auto cluster = RunMixedCluster(GetParam().seed, GetParam().policy);
  uint64_t tx_bytes = 0;
  uint64_t rx_bytes = 0;
  for (uint32_t n = 0; n < cluster->num_nodes(); n++) {
    tx_bytes += cluster->net().node_tx(NodeId{n}).bytes;
    rx_bytes += cluster->net().node_rx(NodeId{n}).bytes;
  }
  // Everything sent is eventually received (we drained the sim; no crashes).
  EXPECT_EQ(tx_bytes, rx_bytes);
  EXPECT_EQ(tx_bytes, cluster->net().total_traffic().bytes);
}

TEST_P(ClusterPropertyTest, EveryAccessCompletesExactlyOnce) {
  auto cluster = RunMixedCluster(GetParam().seed, GetParam().policy);
  uint64_t ops = 0;
  for (const auto& w : cluster->workloads()) {
    EXPECT_TRUE(w->finished());
    ops += w->ops();
  }
  EXPECT_EQ(ops, 8000u + 12000u);
  uint64_t accesses = 0;
  for (uint32_t n = 0; n < cluster->num_nodes(); n++) {
    accesses += cluster->node_os(NodeId{n}).stats().accesses;
  }
  EXPECT_EQ(accesses, ops);
}

TEST_P(ClusterPropertyTest, FaultsAreServedBySomething) {
  auto cluster = RunMixedCluster(GetParam().seed, GetParam().policy);
  for (uint32_t n = 0; n < 2; n++) {
    const auto& os = cluster->node_os(NodeId{n}).stats();
    const auto& svc = cluster->service(NodeId{n}).stats();
    // Every fault resolves to cluster memory, its own disk, NFS, or a
    // zero-fill; the first three are counted, zero-fills make up the rest.
    EXPECT_LE(svc.getpage_hits + os.disk_reads + os.nfs_reads, os.faults);
    EXPECT_GT(os.faults, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, ClusterPropertyTest,
    ::testing::Values(
        PropertyCase{.policy = PolicyKind::kGms, .seed = 1},
        PropertyCase{.policy = PolicyKind::kGms, .seed = 2},
        PropertyCase{.policy = PolicyKind::kGms, .seed = 99},
        PropertyCase{.policy = PolicyKind::kNchance, .seed = 1},
        PropertyCase{.policy = PolicyKind::kNchance, .seed = 7},
        PropertyCase{.policy = PolicyKind::kLocalLru, .seed = 1},
        PropertyCase{.policy = PolicyKind::kEnsemble, .seed = 1},
        PropertyCase{.policy = PolicyKind::kEnsemble, .seed = 7}),
    [](const auto& info) {
      std::string name;
      switch (info.param.policy) {
        case PolicyKind::kGms: name = "Gms"; break;
        case PolicyKind::kNchance: name = "Nchance"; break;
        case PolicyKind::kLocalLru: name = "Local"; break;
        case PolicyKind::kEnsemble: name = "Ensemble"; break;
      }
      return name + "Seed" + std::to_string(info.param.seed);
    });

TEST(ClusterDeterminismTest, DifferentSeedsDiverge) {
  Cluster::Totals totals[2];
  for (int i = 0; i < 2; i++) {
    ClusterConfig config;
    config.num_nodes = 3;
    config.policy = PolicyKind::kGms;
    config.frames = 256;
    config.frames_per_node = {256, 768, 768};
    config.seed = i == 0 ? 1 : 2;
    Cluster cluster(config);
    cluster.Start();
    cluster.AddWorkload(NodeId{0},
                        std::make_unique<UniformRandomPattern>(
                            PageSet{MakeFileUid(NodeId{0}, 1, 0), 600}, 6000,
                            Microseconds(50)),
                        "w");
    cluster.StartWorkloads();
    ASSERT_TRUE(cluster.RunUntilWorkloadsDone());
    totals[i] = cluster.totals();
  }
  // Different seeds draw different eviction targets and access orders.
  EXPECT_NE(totals[0].net_bytes, totals[1].net_bytes);
}

}  // namespace
}  // namespace gms
