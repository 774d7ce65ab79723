#include "src/cluster/cluster.h"

#include <cassert>
#include <utility>

#include "src/core/local_lru_policy.h"
#include "src/core/messages.h"

namespace gms {

namespace {

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t x = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  return x;
}

}  // namespace

Cluster::Cluster(ClusterConfig config) : config_(std::move(config)) {
  assert(config_.num_nodes >= 1);
  if (config_.obs.trace && kTraceCompiledIn) {
    tracer_ = std::make_unique<Tracer>(config_.num_nodes,
                                       config_.obs.trace_ring_capacity);
    if (!config_.obs.trace_path.empty()) {
      tracer_->OpenFile(config_.obs.trace_path);
    }
    tracer_->set_enabled(true);
  }
  net_ = std::make_unique<Network>(&sim_, config_.num_nodes, config_.net);
  net_->set_tracer(tracer_.get());
  nodes_.reserve(config_.num_nodes);
  for (uint32_t i = 0; i < config_.num_nodes; i++) {
    const NodeId id{i};
    auto rt = std::make_unique<NodeRuntime>();
    rt->cpu = std::make_unique<Cpu>(&sim_);
    rt->disk = std::make_unique<Disk>(&sim_, config_.disk);
    rt->disk->set_tracer(tracer_.get(), id);
    const uint32_t frames = i < config_.frames_per_node.size()
                                ? config_.frames_per_node[i]
                                : config_.frames;
    rt->frames = std::make_unique<FrameTable>(frames);
    const uint64_t far_pages = i < config_.far_frames_per_node.size()
                                   ? config_.far_frames_per_node[i]
                                   : config_.far.capacity_pages;
    if (far_pages > 0) {
      FarMemoryParams fp = config_.far;
      fp.capacity_pages = far_pages;
      if (fp.fixed_latency == 0) {
        fp.fixed_latency = config_.gms.costs.far_fixed_latency;
      }
      if (fp.per_byte == 0) {
        fp.per_byte = config_.gms.costs.far_per_byte;
      }
      rt->far = std::make_unique<FarMemoryTier>(&sim_, fp);
      rt->far->set_tracer(tracer_.get(), id);
    }
    InstallService(*rt, MakeService(id, *rt));
    rt->os = std::make_unique<NodeOs>(&sim_, net_.get(), rt->cpu.get(),
                                      rt->disk.get(), rt->frames.get(),
                                      rt->service.get(), id,
                                      config_.gms.costs, config_.node);
    rt->os->set_tracer(tracer_.get());
    if (rt->far != nullptr) {
      rt->os->AddBackingTier(rt->far.get());
    }
    nodes_.push_back(std::move(rt));
    AttachDispatcher(id);
    RegisterNodeMetrics(i);
    if (i == 0) {
      // Every node registers node 0's families: size the registry once
      // (plus "net/total") instead of regrowing it as the nodes come up.
      metrics_.Reserve(metrics_.size() * config_.num_nodes + 1);
    }
  }
  metrics_.RegisterCounter("net/total", [this] { return &net_->total_traffic(); });
  if (config_.obs.health) {
    HealthConfig hc = config_.obs.health_config;
    if (hc.epoch_period <= 0) {
      hc.epoch_period = config_.gms.epoch.t_max;
    }
    health_ = std::make_unique<HealthMonitor>(&metrics_, config_.num_nodes, hc);
    health_->set_tracer(tracer_.get());
    health_->Bind();  // all metric families above exist; Bind resolves them
  }
}

Cluster::~Cluster() = default;

std::unique_ptr<CacheEngine> Cluster::MakeService(NodeId id,
                                                  NodeRuntime& rt) {
  const uint64_t seed = MixSeed(config_.seed, id.value + 1);
  EngineConfig engine;
  std::unique_ptr<ReplacementPolicy> policy;
  switch (config_.policy) {
    case PolicyKind::kGms:
      return MakeGmsAgent(id, rt, seed);
    case PolicyKind::kNchance:
      // Retries stay disabled (the OSDI '94 baseline pre-dates the
      // reliability layer and the comparison keeps its original lossy
      // semantics) and served pages never propagate dirty bits — that is the
      // GMS dirty-global extension.
      engine.costs = config_.nchance.costs;
      engine.getpage_timeout = config_.nchance.getpage_timeout;
      engine.global_age_boost = config_.nchance.global_age_boost;
      policy = std::make_unique<NchancePolicy>(seed, config_.nchance);
      break;
    case PolicyKind::kLocalLru:
      // The engine with no global cache ("native OSF/1"): getpage
      // short-circuits to a miss and evictions drop to disk. Shares the GMS
      // cost model so per-access CPU charges line up across policy
      // comparisons.
      engine.costs = config_.gms.costs;
      policy = std::make_unique<LocalLruPolicy>();
      break;
    case PolicyKind::kEnsemble:
      engine.costs = config_.ensemble.costs;
      policy = std::make_unique<EnsemblePolicy>(seed, config_.ensemble);
      break;
  }
  return std::make_unique<CacheEngine>(&sim_, net_.get(), rt.cpu.get(),
                                       rt.frames.get(), id, engine,
                                       std::move(policy));
}

std::unique_ptr<GmsAgent> Cluster::MakeGmsAgent(NodeId id, NodeRuntime& rt,
                                                uint64_t seed) {
  auto agent = std::make_unique<GmsAgent>(&sim_, net_.get(), rt.cpu.get(),
                                          rt.frames.get(), id, seed,
                                          config_.gms);
  rt.gms = agent.get();
  return agent;
}

void Cluster::InstallService(NodeRuntime& rt,
                             std::unique_ptr<CacheEngine> service) {
  service->set_tracer(tracer_.get());
  // The far tier outlives crashes (it is not the node's RAM), so a rebooted
  // node's fresh engine resumes demoting into it.
  service->set_far_tier(rt.far.get());
  rt.service = std::move(service);
  if (rt.os != nullptr) {
    rt.os->set_service(rt.service.get());
  }
}

void Cluster::RegisterNodeMetrics(uint32_t i) {
  // Getter-based registration: lambdas re-read through nodes_[i] on every
  // snapshot, so a rebooted node's fresh service is picked up transparently
  // and ResetStats() shows through as a value drop.
  const std::string p = "node" + std::to_string(i) + "/";
  const NodeRuntime* rt = nodes_[i].get();
  auto os = [rt]() { return &rt->os->stats(); };
  metrics_.RegisterValue(p + "os/accesses", [os] { return os()->accesses; });
  metrics_.RegisterValue(p + "os/local_hits", [os] { return os()->local_hits; });
  metrics_.RegisterValue(p + "os/faults", [os] { return os()->faults; });
  metrics_.RegisterValue(p + "os/disk_reads", [os] { return os()->disk_reads; });
  metrics_.RegisterValue(p + "os/disk_writes", [os] { return os()->disk_writes; });
  metrics_.RegisterValue(p + "os/nfs_reads", [os] { return os()->nfs_reads; });
  metrics_.RegisterValue(p + "os/nfs_served", [os] { return os()->nfs_served; });
  metrics_.RegisterStat(p + "os/access_us", [os] { return &os()->access_us; });
  metrics_.RegisterStat(p + "os/fault_us", [os] { return &os()->fault_us; });
  metrics_.RegisterLatency(p + "os/access_ns", [os] { return &os()->access_ns; });
  metrics_.RegisterLatency(p + "os/fault_ns", [os] { return &os()->fault_ns; });

  auto svc = [rt]() { return &rt->service->stats(); };
  metrics_.RegisterValue(p + "svc/getpage_attempts",
                         [svc] { return svc()->getpage_attempts; });
  metrics_.RegisterValue(p + "svc/getpage_hits",
                         [svc] { return svc()->getpage_hits; });
  metrics_.RegisterValue(p + "svc/getpage_misses",
                         [svc] { return svc()->getpage_misses; });
  metrics_.RegisterValue(p + "svc/getpage_timeouts",
                         [svc] { return svc()->getpage_timeouts; });
  metrics_.RegisterValue(p + "svc/putpages_sent",
                         [svc] { return svc()->putpages_sent; });
  metrics_.RegisterValue(p + "svc/putpages_received",
                         [svc] { return svc()->putpages_received; });
  metrics_.RegisterValue(p + "svc/discards_old",
                         [svc] { return svc()->discards_old; });
  metrics_.RegisterValue(p + "svc/epochs_started",
                         [svc] { return svc()->epochs_started; });
  metrics_.RegisterValue(p + "svc/epoch_partials_sent",
                         [svc] { return svc()->epoch_partials_sent; });
  metrics_.RegisterValue(p + "svc/epoch_partials_merged",
                         [svc] { return svc()->epoch_partials_merged; });
  metrics_.RegisterValue(p + "svc/epoch_root_summary_msgs",
                         [svc] { return svc()->epoch_root_summary_msgs; });
  metrics_.RegisterValue(p + "svc/getpage_retries",
                         [svc] { return svc()->getpage_retries; });
  metrics_.RegisterValue(p + "svc/control_retries",
                         [svc] { return svc()->control_retries; });
  metrics_.RegisterValue(p + "svc/duplicate_msgs_dropped",
                         [svc] { return svc()->duplicate_msgs_dropped; });
  // The node's adopted epoch number (0 for non-GMS policies): the health
  // monitor's staleness detector watches its derivative.
  metrics_.RegisterValue(p + "svc/epoch", [rt] {
    return rt->gms != nullptr ? rt->gms->epoch_view().epoch : 0;
  });
  metrics_.RegisterLatency(p + "svc/getpage_hit_ns",
                           [svc] { return &svc()->getpage_hit_ns; });
  metrics_.RegisterLatency(p + "svc/getpage_miss_ns",
                           [svc] { return &svc()->getpage_miss_ns; });
  metrics_.RegisterValue(p + "svc/fills_zero",
                         [svc] { return svc()->fills_zero; });
  metrics_.RegisterValue(p + "svc/fills_far",
                         [svc] { return svc()->fills_far; });
  metrics_.RegisterValue(p + "svc/fills_disk",
                         [svc] { return svc()->fills_disk; });
  metrics_.RegisterValue(p + "svc/fills_nfs",
                         [svc] { return svc()->fills_nfs; });
  metrics_.RegisterValue(p + "svc/demotions_far",
                         [svc] { return svc()->demotions_far; });
  metrics_.RegisterValue(p + "svc/far_promotions",
                         [svc] { return svc()->far_promotions; });

  auto disk = [rt]() { return &rt->disk->stats(); };
  metrics_.RegisterValue(p + "disk/reads", [disk] { return disk()->reads; });
  metrics_.RegisterValue(p + "disk/writes", [disk] { return disk()->writes; });
  metrics_.RegisterStat(p + "disk/read_latency_us",
                        [disk] { return &disk()->read_latency; });

  if (rt->far != nullptr) {
    auto far = [rt]() { return &rt->far->stats(); };
    metrics_.RegisterValue(p + "far/reads", [far] { return far()->reads; });
    metrics_.RegisterValue(p + "far/writes", [far] { return far()->writes; });
    metrics_.RegisterValue(p + "far/evictions",
                           [far] { return far()->evictions; });
    metrics_.RegisterValue(p + "far/resident",
                           [rt] { return rt->far->resident_pages(); });
    metrics_.RegisterStat(p + "far/read_latency_us",
                          [far] { return &far()->read_latency; });
  }

  Network* net = net_.get();
  const NodeId id{i};
  metrics_.RegisterCounter(p + "net/tx", [net, id] { return &net->node_tx(id); });
  metrics_.RegisterCounter(p + "net/rx", [net, id] { return &net->node_rx(id); });
}

void Cluster::AttachDispatcher(NodeId id) {
  net_->Attach(id, [this, id](Datagram&& dgram) {
    NodeRuntime& rt = *nodes_[id.value];
    if (dgram.type == kMsgNfsReadReq || dgram.type == kMsgNfsReadReply ||
        dgram.type == kMsgWriteBack) {
      rt.os->OnDatagram(std::move(dgram));
      return;
    }
    rt.service->OnDatagram(std::move(dgram));
  });
}

void Cluster::Start() {
  assert(!started_);
  started_ = true;
  std::vector<NodeId> live;
  live.reserve(config_.num_nodes);
  for (uint32_t i = 0; i < config_.num_nodes; i++) {
    live.push_back(NodeId{i});
  }
  // One read-only table shared by every node.
  const auto pod = std::make_shared<const PodTable>(Pod::Build(1, live));
  for (uint32_t i = 0; i < config_.num_nodes; i++) {
    NodeRuntime& rt = *nodes_[i];
    // Start() arms per-node timers (epoch initiation, retries): they must be
    // stamped and owned by the node's context, not the harness's.
    Simulator::ContextScope in_node(sim_, i + 1);
    if (rt.gms != nullptr) {
      rt.gms->Start(pod, config_.master, config_.first_initiator);
    } else {
      rt.service->Start(pod);
    }
  }
  if (config_.obs.snapshot_interval > 0 || health_ != nullptr) {
    ArmSnapshotTimer();
  }
}

void Cluster::ArmSnapshotTimer() {
  // Snapshot and health-sampling events only read stats, so arming them
  // cannot change simulated behaviour: they run in the control context,
  // whose stamps never perturb the relative order of node events. The health
  // monitor rides the snapshot cadence when one was requested (the snapshot
  // series stays opt-in — long runs with health on do not accumulate one);
  // otherwise it samples at its own interval.
  const SimTime interval =
      config_.obs.snapshot_interval > 0
          ? config_.obs.snapshot_interval
          : config_.obs.health_config.sample_interval;
  sim_.After(interval, [this] {
    if (config_.obs.snapshot_interval > 0) {
      metrics_.SnapshotEpoch(sim_.now());
    }
    if (health_ != nullptr) {
      health_->Sample(sim_.now());
    }
    ArmSnapshotTimer();
  });
}

WorkloadDriver& Cluster::AddWorkload(NodeId node,
                                     std::unique_ptr<AccessPattern> pattern,
                                     std::string name) {
  NodeRuntime& rt = *nodes_.at(node.value);
  workloads_.push_back(std::make_unique<WorkloadDriver>(
      &sim_, rt.cpu.get(), rt.os.get(), std::move(pattern),
      Rng(MixSeed(config_.seed, 0x10000 + workloads_.size())),
      std::move(name)));
  return *workloads_.back();
}

void Cluster::StartWorkloads() {
  for (auto& w : workloads_) {
    w->Start();
  }
}

bool Cluster::AllWorkloadsFinished() const {
  for (const auto& w : workloads_) {
    if (w->started() && !w->finished()) {
      return false;
    }
  }
  return true;
}

bool Cluster::RunUntilWorkloadsDone(SimTime max_time) {
  const SimTime deadline = sim_.now() + max_time;
  // Chunked advance: cheap finish checks without per-event callbacks.
  while (!AllWorkloadsFinished() && sim_.now() < deadline) {
    SimTime chunk = Milliseconds(50);
    if (sim_.now() + chunk > deadline) {
      chunk = deadline - sim_.now();
    }
    sim_.RunFor(chunk);
  }
  return AllWorkloadsFinished();
}

bool Cluster::Quiescent() const {
  if (net_->in_flight() != 0) {
    return false;
  }
  for (const auto& rt : nodes_) {
    if (rt->gms != nullptr && rt->gms->alive() && !rt->gms->Quiescent()) {
      return false;
    }
  }
  return true;
}

bool Cluster::RunUntilQuiescent(SimTime max_time) {
  const SimTime deadline = sim_.now() + max_time;
  bool was_quiet = false;
  while (sim_.now() < deadline) {
    sim_.RunFor(Milliseconds(10));
    if (!Quiescent()) {
      was_quiet = false;
      continue;
    }
    if (was_quiet) {
      return true;
    }
    was_quiet = true;
  }
  return false;
}

void Cluster::CrashNode(NodeId node) {
  NodeRuntime& rt = *nodes_.at(node.value);
  Simulator::ContextScope in_node(sim_, node.value + 1);
  net_->SetNodeUp(node, false);
  rt.service->SetAlive(false);
  rt.frames->Reset();
}

void Cluster::RestartNode(NodeId node) {
  NodeRuntime& rt = *nodes_.at(node.value);
  Simulator::ContextScope in_node(sim_, node.value + 1);
  net_->SetNodeUp(node, true);
  if (rt.gms != nullptr) {
    // Fresh agent: a rebooted kernel has no directory or epoch state.
    const uint64_t seed = MixSeed(config_.seed, 0x20000 + node.value);
    InstallService(rt, MakeGmsAgent(node, rt, seed));
    rt.gms->Start(std::make_shared<const PodTable>(Pod::Build(0, {node})),
                  config_.master, kInvalidNode);
    rt.gms->Join(config_.master);
  } else {
    // Memory was lost (frames reset) but the engine and its directory
    // partition survive; the node simply resumes participating.
    rt.service->SetAlive(true);
  }
}

Cluster::Totals Cluster::totals() const {
  Totals t;
  for (uint32_t i = 0; i < config_.num_nodes; i++) {
    const NodeRuntime& rt = *nodes_[i];
    const NodeOsStats& os = rt.os->stats();
    t.accesses += os.accesses;
    t.local_hits += os.local_hits;
    t.faults += os.faults;
    t.disk_reads += os.disk_reads + os.nfs_server_disk_reads;
    t.disk_writes += os.disk_writes;
    const MemoryServiceStats& svc = rt.service->stats();
    t.getpage_hits += svc.getpage_hits;
    t.putpages_sent += svc.putpages_sent;
  }
  t.net_messages = net_->total_traffic().events;
  t.net_bytes = net_->total_traffic().bytes;
  return t;
}

void Cluster::ResetStats() {
  for (auto& rt : nodes_) {
    rt->os->ResetStats();
    rt->service->ResetStats();
    rt->disk->ResetStats();
    if (rt->far != nullptr) {
      rt->far->ResetStats();
    }
  }
  net_->ResetStats();
}

}  // namespace gms
