#include "src/cluster/cluster.h"

#include <cassert>
#include <string>
#include <utility>
#include <vector>

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
    rt->net = net_.get();
    rt->id = id;
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
    const bool with_far = rt->far != nullptr;
    nodes_.push_back(std::move(rt));
    AttachDispatcher(id);
    metrics_.RegisterFamily("node" + std::to_string(i) + "/",
                            NodeMetricSchema(with_far), nodes_.back().get());
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

const MetricSchema& Cluster::NodeMetricSchema(bool with_far) {
  // Every reader goes through the node's runtime on each read, so a
  // rebooted node's fresh service is picked up and ResetStats() shows
  // through as a value drop.
  static constexpr auto rt = [](const void* ctx) -> const NodeRuntime& {
    return *static_cast<const NodeRuntime*>(ctx);
  };
  static constexpr auto os = [](const void* c) -> const NodeOsStats& {
    return rt(c).os->stats();
  };
  static constexpr auto svc = [](const void* c) -> const MemoryServiceStats& {
    return rt(c).service->stats();
  };
  static constexpr auto disk = [](const void* c) -> const Disk::Stats& {
    return rt(c).disk->stats();
  };
  static constexpr auto far = [](const void* c) -> const FarMemoryTier& {
    return *rt(c).far;
  };
  using F = MetricField;
  static const std::vector<MetricField> kFields = {
      F("os/accesses", [](const void* c) { return os(c).accesses; }),
      F("os/local_hits", [](const void* c) { return os(c).local_hits; }),
      F("os/faults", [](const void* c) { return os(c).faults; }),
      F("os/disk_reads", [](const void* c) { return os(c).disk_reads; }),
      F("os/disk_writes", [](const void* c) { return os(c).disk_writes; }),
      F("os/nfs_reads", [](const void* c) { return os(c).nfs_reads; }),
      F("os/nfs_served", [](const void* c) { return os(c).nfs_served; }),
      F("os/access_us", [](const void* c) { return &os(c).access_us; }),
      F("os/fault_us", [](const void* c) { return &os(c).fault_us; }),
      F("os/access_ns", [](const void* c) { return &os(c).access_ns; }),
      F("os/fault_ns", [](const void* c) { return &os(c).fault_ns; }),
      F("svc/getpage_attempts",
        [](const void* c) { return svc(c).getpage_attempts; }),
      F("svc/getpage_hits", [](const void* c) { return svc(c).getpage_hits; }),
      F("svc/getpage_misses",
        [](const void* c) { return svc(c).getpage_misses; }),
      F("svc/getpage_timeouts",
        [](const void* c) { return svc(c).getpage_timeouts; }),
      F("svc/putpages_sent",
        [](const void* c) { return svc(c).putpages_sent; }),
      F("svc/putpages_received",
        [](const void* c) { return svc(c).putpages_received; }),
      F("svc/discards_old", [](const void* c) { return svc(c).discards_old; }),
      F("svc/epochs_started",
        [](const void* c) { return svc(c).epochs_started; }),
      F("svc/epoch_partials_sent",
        [](const void* c) { return svc(c).epoch_partials_sent; }),
      F("svc/epoch_partials_merged",
        [](const void* c) { return svc(c).epoch_partials_merged; }),
      F("svc/epoch_root_summary_msgs",
        [](const void* c) { return svc(c).epoch_root_summary_msgs; }),
      F("svc/getpage_retries",
        [](const void* c) { return svc(c).getpage_retries; }),
      F("svc/control_retries",
        [](const void* c) { return svc(c).control_retries; }),
      F("svc/duplicate_msgs_dropped",
        [](const void* c) { return svc(c).duplicate_msgs_dropped; }),
      // The node's adopted epoch number (0 for non-GMS policies): the health
      // monitor's staleness detector watches its derivative.
      F("svc/epoch",
        [](const void* c) -> uint64_t {
          const GmsAgent* gms = rt(c).gms;
          return gms != nullptr ? gms->epoch_view().epoch : 0;
        }),
      F("svc/getpage_hit_ns",
        [](const void* c) { return &svc(c).getpage_hit_ns; }),
      F("svc/getpage_miss_ns",
        [](const void* c) { return &svc(c).getpage_miss_ns; }),
      F("svc/fills_zero", [](const void* c) { return svc(c).fills_zero; }),
      F("svc/fills_far", [](const void* c) { return svc(c).fills_far; }),
      F("svc/fills_disk", [](const void* c) { return svc(c).fills_disk; }),
      F("svc/fills_nfs", [](const void* c) { return svc(c).fills_nfs; }),
      F("svc/demotions_far",
        [](const void* c) { return svc(c).demotions_far; }),
      F("svc/far_promotions",
        [](const void* c) { return svc(c).far_promotions; }),
      F("disk/reads", [](const void* c) { return disk(c).reads; }),
      F("disk/writes", [](const void* c) { return disk(c).writes; }),
      F("disk/read_latency_us",
        [](const void* c) { return &disk(c).read_latency; }),
      F("far/reads", [](const void* c) { return far(c).stats().reads; }),
      F("far/writes", [](const void* c) { return far(c).stats().writes; }),
      F("far/evictions",
        [](const void* c) { return far(c).stats().evictions; }),
      F("far/resident", [](const void* c) { return far(c).resident_pages(); }),
      F("far/read_latency_us",
        [](const void* c) { return &far(c).stats().read_latency; }),
      F("net/tx", [](const void* c) { return &rt(c).net->node_tx(rt(c).id); }),
      F("net/rx", [](const void* c) { return &rt(c).net->node_rx(rt(c).id); }),
  };
  static const MetricSchema kWithFar(kFields);
  static const MetricSchema kWithoutFar([] {
    std::vector<MetricField> fields;
    for (const MetricField& f : kFields) {
      if (!f.suffix.starts_with("far/")) {
        fields.push_back(f);
      }
    }
    return fields;
  }());
  return with_far ? kWithFar : kWithoutFar;
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
