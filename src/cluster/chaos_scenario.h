// The standard chaos scenario: a 4-node cluster under fault injection and a
// mid-run partition, with two busy nodes driving GMS traffic into two idle
// donors. Shared by the chaos soak test, the sweep determinism test, and the
// bench/sweep soak driver so they all exercise the exact same universe.
#ifndef SRC_CLUSTER_CHAOS_SCENARIO_H_
#define SRC_CLUSTER_CHAOS_SCENARIO_H_

#include <memory>
#include <string>

#include "src/cluster/cluster.h"

namespace gms {

struct ChaosCase {
  uint64_t seed = 1;
  double loss = 0;  // injected drop probability; duplicates/reorders scale off it
  // Replacement policy under chaos. GMS gets the retry layer; the others keep
  // their original lossy semantics, so under loss they measure degradation
  // rather than recovery.
  PolicyKind policy = PolicyKind::kGms;
  // Epoch aggregation fanout (0 = flat). Nonzero runs the hierarchical
  // summary tree under the same fault injection — dropped/duplicated
  // partials, crashed interior aggregators, straggler timeouts.
  uint32_t epoch_fanout = 0;
  // Far-memory tier per node (pages; 0 = no tier, the two-level original —
  // and the dump stays byte-identical to the pre-hierarchy format).
  uint64_t far_frames = 0;
  // Oscillate each node's far capacity between far_frames and far_frames/2
  // every 100 ms (phase-staggered per node): the dynamic-capacity adversary.
  bool far_fluctuate = false;
};

// Builds the standard chaos cluster: 4 nodes (two busy, two idle), retries
// enabled, fault injection armed from the scenario, and a 250 ms partition
// that cuts the biggest idle-memory donor (node 3) off mid-run. Workloads
// use only node-local backing files, so every wire message is GMS protocol
// traffic — exactly the surface the retry layer hardens.
// `obs` lets the observability tests run this exact universe with tracing
// or metric snapshots enabled; the default keeps it dark.
std::unique_ptr<Cluster> BuildChaosCluster(const ChaosCase& chaos,
                                           bool with_partition = true,
                                           const ObsConfig& obs = {});

// Deterministic multi-line stats dump: simulation clock, per-node service
// counters, and network/fault accounting. Used by the golden determinism
// tests — any nondeterminism anywhere in a faulty run shows up as a diff
// here.
std::string ChaosStatsDump(Cluster& cluster);

}  // namespace gms

#endif  // SRC_CLUSTER_CHAOS_SCENARIO_H_
