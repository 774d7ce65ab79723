#include "src/cluster/experiments.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "src/core/directory.h"
#include "src/workload/patterns.h"

namespace gms {

namespace {

// Frames for a node meant to offer `share` pages of idle memory: the node's
// own pageout daemon keeps a free watermark of ~2*frames/64, which must not
// come out of the offered share.
uint32_t IdleFrames(uint64_t share) {
  const uint64_t frames = share * 33 / 32 + 16;
  return static_cast<uint32_t>(frames);
}

// OO7's idle-memory need: footprint beyond the active node's own memory.
uint64_t OO7NeededIdlePages(const PaperScale& s) {
  AppSpec spec = MakeOO7(NodeId{0}, s.scale);
  const uint32_t active = s.Frames();
  return spec.footprint_pages > active ? spec.footprint_pages - active + 64
                                       : 64;
}

}  // namespace

uint32_t PaperScale::Frames(uint32_t paper_frames) const {
  const double f = static_cast<double>(paper_frames) * scale;
  return std::max<uint32_t>(static_cast<uint32_t>(f), 64);
}

uint64_t PaperScale::PagesOfMb(double mb) const {
  // 128 8-KB pages per MB, scaled like everything else.
  return static_cast<uint64_t>(mb * 128.0 * scale);
}

ClusterConfig PaperConfig(PolicyKind policy, uint32_t num_nodes,
                          const PaperScale& s) {
  ClusterConfig config;
  config.num_nodes = num_nodes;
  config.policy = policy;
  config.seed = s.seed;
  config.frames = s.Frames();
  config.far = s.far;
  return config;
}

double FlagValue(int argc, char** argv, const std::string& name,
                 double fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      return std::stod(arg.substr(prefix.size()));
    }
  }
  return fallback;
}

AppRunResult RunAppAlone(AppKind app, PolicyKind policy, double idle_mb,
                         uint32_t idle_nodes, const PaperScale& s) {
  const bool needs_server = app == AppKind::kBoeingCad;
  const uint32_t num_nodes = 1 + idle_nodes + (needs_server ? 1 : 0);
  ClusterConfig config = PaperConfig(policy, num_nodes, s);

  const uint64_t idle_pages = s.PagesOfMb(idle_mb);
  config.frames_per_node.assign(num_nodes, 0);
  config.frames_per_node[0] = s.Frames();
  for (uint32_t i = 1; i <= idle_nodes; i++) {
    config.frames_per_node[i] = IdleFrames(idle_pages / idle_nodes);
  }
  const NodeId server{needs_server ? num_nodes - 1 : 0};
  if (needs_server) {
    // NFS server with a deliberately modest cache, as in the paper's Table 4
    // "single" scenario: served pages do not linger at the server.
    config.frames_per_node[server.value] = s.Frames(1024);
  }

  Cluster cluster(config);
  cluster.Start();
  AppSpec spec = MakeApp(app, NodeId{0}, server, s.scale, s.seed);
  WorkloadDriver& w =
      cluster.AddWorkload(NodeId{0}, std::move(spec.pattern), spec.name);
  w.Start();
  AppRunResult result;
  result.completed = cluster.RunUntilWorkloadsDone(Seconds(7200));
  result.elapsed = w.elapsed();
  result.ops = w.ops();
  result.totals = cluster.totals();
  return result;
}

SkewResult RunSkewExperiment(PolicyKind policy, double skew,
                             double idle_factor, bool collateral,
                             const PaperScale& s, const ObsConfig& obs) {
  constexpr uint32_t kPeers = 8;
  const uint64_t needed = OO7NeededIdlePages(s);
  const uint64_t total_idle =
      static_cast<uint64_t>(static_cast<double>(needed) * idle_factor);

  // skew fraction of the peers hold (1 - skew) of the idle memory.
  const uint32_t rich = std::max<uint32_t>(
      1, static_cast<uint32_t>(std::lround(skew * kPeers)));
  const uint32_t poor = kPeers - rich;
  const uint64_t rich_share =
      static_cast<uint64_t>((1.0 - skew) * static_cast<double>(total_idle)) /
      rich;
  const uint64_t poor_share =
      poor > 0 ? (total_idle - rich_share * rich) / poor : 0;

  // The collateral program: loops over local memory, half of the accessed
  // pages shared among the instances (a common file hosted on node 1), half
  // private anonymous pages.
  const uint64_t collateral_ws = s.Frames(2048);

  ClusterConfig config = PaperConfig(policy, 1 + kPeers, s);
  config.obs = obs;
  config.frames_per_node.assign(1 + kPeers, 0);
  config.frames_per_node[0] = s.Frames();
  for (uint32_t i = 1; i <= kPeers; i++) {
    const uint64_t share = (i <= rich) ? rich_share : poor_share;
    config.frames_per_node[i] =
        IdleFrames(share) +
        (collateral ? static_cast<uint32_t>(collateral_ws) : 0);
  }

  Cluster cluster(config);
  cluster.Start();

  std::vector<WorkloadDriver*> collateral_drivers;
  if (collateral) {
    const PageSet shared_file{MakeFileUid(NodeId{1}, 7777, 0),
                              collateral_ws / 2};
    for (uint32_t i = 1; i <= kPeers; i++) {
      auto priv = std::make_unique<SequentialPattern>(
          PageSet{MakeAnonUid(NodeId{i}, 9, 0), collateral_ws / 2},
          UINT64_MAX / 2, Microseconds(60));
      auto shared = std::make_unique<SequentialPattern>(
          shared_file, UINT64_MAX / 2, Microseconds(60));
      auto mix = std::make_unique<InterleavePattern>(
          std::move(priv), std::move(shared), 0.5);
      WorkloadDriver& d = cluster.AddWorkload(NodeId{i}, std::move(mix),
                                              "collateral-" + std::to_string(i));
      d.Start();
      collateral_drivers.push_back(&d);
    }
    // Warm: let the collateral programs fault in their working sets.
    cluster.sim().RunFor(Seconds(20));
  }

  SkewResult result;

  // Baseline collateral throughput window (no OO7 running).
  if (collateral) {
    uint64_t ops_before = 0;
    for (auto* d : collateral_drivers) {
      ops_before += d->ops();
    }
    cluster.sim().RunFor(Seconds(10));
    uint64_t ops_after = 0;
    for (auto* d : collateral_drivers) {
      ops_after += d->ops();
    }
    result.collateral_ops_per_sec_baseline =
        static_cast<double>(ops_after - ops_before) /
        (10.0 * static_cast<double>(kPeers));
  }

  // The OO7 run.
  cluster.ResetStats();
  AppSpec oo7 = MakeOO7(NodeId{0}, s.scale);
  WorkloadDriver& w = cluster.AddWorkload(NodeId{0}, std::move(oo7.pattern),
                                          oo7.name);
  uint64_t collateral_ops_at_start = 0;
  for (auto* d : collateral_drivers) {
    collateral_ops_at_start += d->ops();
  }
  w.Start();
  // The collateral programs never finish; wait on OO7 alone.
  const SimTime deadline = cluster.sim().now() + Seconds(7200);
  while (!w.finished() && cluster.sim().now() < deadline) {
    cluster.sim().RunFor(Milliseconds(100));
  }
  result.completed = w.finished();
  result.oo7_elapsed = w.elapsed();

  if (collateral) {
    uint64_t collateral_ops_at_end = 0;
    for (auto* d : collateral_drivers) {
      collateral_ops_at_end += d->ops();
    }
    result.collateral_ops_per_sec_during =
        static_cast<double>(collateral_ops_at_end - collateral_ops_at_start) /
        (ToSeconds(result.oo7_elapsed) * static_cast<double>(kPeers));
    for (auto* d : collateral_drivers) {
      d->Stop();
    }
  }
  result.network_mb =
      static_cast<double>(cluster.totals().net_bytes) / (1024.0 * 1024.0);
  if (Tracer* tracer = cluster.tracer()) {
    tracer->Finish();
    result.trace_records = tracer->records_recorded();
  }
  if (obs.trace || obs.snapshot_interval != 0) {
    result.metrics_json = cluster.metrics().ToJson();
  }
  return result;
}

SingleIdleResult RunSingleIdleProvider(uint32_t clients, PolicyKind policy,
                                       const PaperScale& s) {
  const uint64_t needed = OO7NeededIdlePages(s);
  const uint32_t num_nodes = clients + 1;
  const NodeId idle{clients};

  ClusterConfig config = PaperConfig(policy, num_nodes, s);
  config.frames_per_node.assign(num_nodes, s.Frames());
  // Enough memory at the single provider for every client's overflow.
  config.frames_per_node[idle.value] = IdleFrames(needed * clients);

  Cluster cluster(config);
  cluster.Start();
  std::vector<WorkloadDriver*> drivers;
  for (uint32_t c = 0; c < clients; c++) {
    AppSpec spec = MakeOO7(NodeId{c}, s.scale);
    WorkloadDriver& d = cluster.AddWorkload(NodeId{c}, std::move(spec.pattern),
                                            "oo7-" + std::to_string(c));
    drivers.push_back(&d);
  }
  const SimTime start = cluster.sim().now();
  const SimTime idle_busy_start = cluster.cpu(idle).total_busy_time();
  const uint64_t served_start =
      cluster.service(idle).stats().putpages_received +
      cluster.service(idle).stats().global_hits_served;
  for (auto* d : drivers) {
    d->Start();
  }

  SingleIdleResult result;
  result.completed = cluster.RunUntilWorkloadsDone(Seconds(7200));
  SimTime sum = 0;
  for (auto* d : drivers) {
    sum += d->elapsed();
  }
  result.mean_client_elapsed = sum / static_cast<SimTime>(clients);

  // CPU overhead and service rate at the idle node, over the span until the
  // last client finished.
  SimTime span = 0;
  for (auto* d : drivers) {
    span = std::max(span, d->finished_at() - start);
  }
  if (span > 0) {
    result.idle_cpu_utilization =
        static_cast<double>(cluster.cpu(idle).total_busy_time() -
                            idle_busy_start) /
        static_cast<double>(span);
    const uint64_t served = cluster.service(idle).stats().putpages_received +
                            cluster.service(idle).stats().global_hits_served -
                            served_start;
    result.idle_ops_per_sec = static_cast<double>(served) / ToSeconds(span);
  }
  return result;
}

}  // namespace gms
