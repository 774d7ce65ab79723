// Cluster assembly: builds a complete simulated cluster — network, one CPU,
// disk, frame table, cache engine and node/OS layer per node — from a
// declarative config, wires the per-node message dispatch, and provides the
// run/crash/metrics controls the experiments use.
#ifndef SRC_CLUSTER_CLUSTER_H_
#define SRC_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/policy_registry.h"
#include "src/cluster/workload_driver.h"
#include "src/core/cache_engine.h"
#include "src/core/ensemble_policy.h"
#include "src/core/gms_agent.h"
#include "src/disk/disk.h"
#include "src/mem/far_memory.h"
#include "src/mem/frame_table.h"
#include "src/nchance/nchance_policy.h"
#include "src/net/network.h"
#include "src/node/node_os.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/cpu.h"
#include "src/sim/simulator.h"
#include "src/workload/access_pattern.h"

namespace gms {

// Observability wiring (src/obs). Off by default: with `trace == false` no
// Tracer exists and every call site degrades to a null-pointer test (or to
// nothing at all under -DGMS_TRACE=OFF).
struct ObsConfig {
  bool trace = false;
  // Binary trace file; empty = digest-only tracing (golden tests).
  std::string trace_path;
  uint32_t trace_ring_capacity = 16384;  // records per node, preallocated
  // >0: append a cumulative MetricsRegistry snapshot every interval (the
  // per-epoch time series behind Figure 8/11-style curves).
  SimTime snapshot_interval = 0;
  // Online health monitoring (src/obs/health.h): detectors sample the
  // metrics registry on the snapshot timer (or health.sample_interval when
  // no snapshot series was requested) and record incidents into the trace
  // and the --health_out report. health.epoch_period is defaulted from
  // GmsConfig::epoch.t_max when left 0.
  bool health = false;
  HealthConfig health_config;
};

struct ClusterConfig {
  uint32_t num_nodes = 2;
  PolicyKind policy = PolicyKind::kGms;
  uint64_t seed = 1;
  ObsConfig obs;

  // Frames per node; 8192 = the paper's 64 MB workstations. Override single
  // nodes via frames_per_node.
  uint32_t frames = 8192;
  std::vector<uint32_t> frames_per_node;  // empty = uniform

  NetworkParams net;
  DiskParams disk;
  // Far-memory tier between the global cache and the disk backstop.
  // capacity_pages == 0 (the default) builds no tier at all: the cluster is
  // the paper's two-level original, byte for byte. Latencies left at 0 are
  // defaulted from the cost model (gms.costs.far_*). Override single nodes
  // via far_frames_per_node (0 entries = that node has no far memory).
  FarMemoryParams far;
  std::vector<uint64_t> far_frames_per_node;  // empty = uniform
  NodeParams node;
  GmsConfig gms;
  NchanceConfig nchance;
  EnsembleConfig ensemble;

  NodeId master{0};
  NodeId first_initiator{0};
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Installs the initial membership and starts the agents. Call once, before
  // running.
  void Start();

  // --- access to parts ---
  Simulator& sim() { return sim_; }
  Network& net() { return *net_; }
  uint32_t num_nodes() const { return config_.num_nodes; }
  Cpu& cpu(NodeId node) { return *nodes_.at(node.value)->cpu; }
  Disk& disk(NodeId node) { return *nodes_.at(node.value)->disk; }
  // Null when the node has no far memory configured.
  FarMemoryTier* far_tier(NodeId node) { return nodes_.at(node.value)->far.get(); }
  const FarMemoryTier* far_tier(NodeId node) const {
    return nodes_.at(node.value)->far.get();
  }
  FrameTable& frames(NodeId node) { return *nodes_.at(node.value)->frames; }
  NodeOs& node_os(NodeId node) { return *nodes_.at(node.value)->os; }
  // The node's cache engine, under every policy (`local` included). Replaced
  // by a fresh one when a GMS node reboots, so do not hold the reference
  // across RestartNode.
  CacheEngine& service(NodeId node) { return *nodes_.at(node.value)->service; }
  // The same engine as its GMS face; nullptr unless the policy is `gms`.
  // Other policies are reached via service(node).policy().
  GmsAgent* gms_agent(NodeId node) { return nodes_.at(node.value)->gms; }

  // --- workloads ---
  WorkloadDriver& AddWorkload(NodeId node, std::unique_ptr<AccessPattern> pattern,
                              std::string name);
  const std::vector<std::unique_ptr<WorkloadDriver>>& workloads() const {
    return workloads_;
  }
  void StartWorkloads();
  bool AllWorkloadsFinished() const;
  // Runs the simulation until every workload finishes (or max_time elapses).
  // Returns true when all finished.
  bool RunUntilWorkloadsDone(SimTime max_time = Seconds(36000));

  // True when no datagram is in flight and no live GMS agent has protocol
  // work outstanding (unacked control messages, pending getpages, summary
  // collection). The precondition for the cluster invariant checker.
  bool Quiescent() const;
  // Runs until Quiescent() holds stably (two consecutive probes — protocol
  // work can hide behind queued CPU kernels with nothing on the wire) or
  // max_time elapses. Returns true on quiesce.
  bool RunUntilQuiescent(SimTime max_time = Seconds(60));

  // --- faults/membership ---
  // Crashes a node: network down, engine stopped, memory contents lost.
  void CrashNode(NodeId node);
  // Reboots a crashed node with empty memory. Under gms it gets a fresh
  // agent, which joins via the master; other policies resume their surviving
  // engine.
  void RestartNode(NodeId node);

  // --- metrics ---
  struct Totals {
    uint64_t accesses = 0;
    uint64_t local_hits = 0;
    uint64_t faults = 0;
    uint64_t getpage_hits = 0;
    uint64_t disk_reads = 0;
    uint64_t disk_writes = 0;
    uint64_t putpages_sent = 0;
    uint64_t net_messages = 0;
    uint64_t net_bytes = 0;
  };
  Totals totals() const;
  void ResetStats();

  // --- observability ---
  // Null unless config.obs.trace. Flush()/Finish() and the digest live on
  // the tracer itself.
  Tracer* tracer() { return tracer_.get(); }
  // Every stats field of every subsystem, under
  // "node<i>/{os,svc,disk,far,net}/" (one NodeMetricSchema family per node)
  // and "net/total". Populated at construction; readers go through the live
  // objects, so values track reboots and resets.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  // Null unless config.obs.health. ToJson() is the --health_out report.
  HealthMonitor* health() { return health_.get(); }
  const HealthMonitor* health() const { return health_.get(); }

 private:
  struct NodeRuntime {
    std::unique_ptr<Cpu> cpu;
    std::unique_ptr<Disk> disk;
    // Far-memory tier; null unless configured. Outlives crashes — the tier
    // models disaggregated memory, not part of the node's RAM — so a
    // rebooted node finds its demoted pages still there.
    std::unique_ptr<FarMemoryTier> far;
    std::unique_ptr<FrameTable> frames;
    std::unique_ptr<CacheEngine> service;
    GmsAgent* gms = nullptr;  // view into `service` under gms
    std::unique_ptr<NodeOs> os;
    // The node's network counters are read through these.
    const Network* net = nullptr;
    NodeId id;
  };

  std::unique_ptr<CacheEngine> MakeService(NodeId id, NodeRuntime& rt);
  std::unique_ptr<GmsAgent> MakeGmsAgent(NodeId id, NodeRuntime& rt,
                                         uint64_t seed);
  // Wires a freshly built engine into the node: tracer, far tier, NodeOs.
  void InstallService(NodeRuntime& rt, std::unique_ptr<CacheEngine> service);
  void AttachDispatcher(NodeId id);
  // The metric family every node registers under "node<i>/", read through
  // its NodeRuntime; nodes with a far tier add the "far/" fields.
  static const MetricSchema& NodeMetricSchema(bool with_far);
  void ArmSnapshotTimer();

  ClusterConfig config_;
  Simulator sim_;
  // Declared before nodes_ so it outlives every subsystem holding a raw
  // Tracer*.
  std::unique_ptr<Tracer> tracer_;
  MetricsRegistry metrics_;
  std::unique_ptr<HealthMonitor> health_;
  std::unique_ptr<Network> net_;
  std::vector<std::unique_ptr<NodeRuntime>> nodes_;
  std::vector<std::unique_ptr<WorkloadDriver>> workloads_;
  bool started_ = false;
};

}  // namespace gms

#endif  // SRC_CLUSTER_CLUSTER_H_
