// Reusable experiment setups mirroring the paper's evaluation (section 5).
//
// The standard shape is the paper's: one 64 MB active workstation, eight
// nodes housing idle memory, everything on a 155 Mb/s network. `scale`
// shrinks node memory, application footprints and operation counts together
// so quick runs preserve the memory-pressure ratios; 1.0 is paper-sized.
#ifndef SRC_CLUSTER_EXPERIMENTS_H_
#define SRC_CLUSTER_EXPERIMENTS_H_

#include <cstdint>
#include <string>

#include "src/cluster/cluster.h"
#include "src/workload/applications.h"

namespace gms {

struct PaperScale {
  double scale = 0.25;
  uint64_t seed = 1;
  // Far-memory tier settings parsed from --tiering / --far_mem_frames /
  // --far_mem_lat (bench_util.h ParseTierFlags); PaperConfig copies this
  // into ClusterConfig::far, so every experiment helper accepts the
  // hierarchy flags. capacity_pages == 0 (default) = no tier.
  FarMemoryParams far;

  // Paper-sized frame counts scaled down (64 MB node = 8192 frames).
  uint32_t Frames(uint32_t paper_frames = 8192) const;
  // Scaled page count for a paper-scale megabyte figure (e.g. the Figure 6
  // x-axis).
  uint64_t PagesOfMb(double mb) const;
};

// Baseline cluster config for a paper-style experiment.
ClusterConfig PaperConfig(PolicyKind policy, uint32_t num_nodes,
                          const PaperScale& s);

// Parses "--name=value" from argv; returns fallback when absent.
double FlagValue(int argc, char** argv, const std::string& name,
                 double fallback);

struct AppRunResult {
  SimTime elapsed = 0;
  uint64_t ops = 0;
  Cluster::Totals totals;
  bool completed = false;
};

// Figure 6/7 building block: runs `app` alone on node 0 of a cluster with
// `idle_nodes` idle-memory nodes sharing `idle_mb` (paper-scale MB) of free
// memory, plus a file server node when the app needs one.
AppRunResult RunAppAlone(AppKind app, PolicyKind policy, double idle_mb,
                         uint32_t idle_nodes, const PaperScale& s);

// Figure 9/10/11 building block. Node 0 runs OO7; eight peers hold idle
// memory with `skew` (fraction of peers holding most of it; 0.25/0.375/0.5)
// and `idle_factor` × the idle memory OO7 needs. With `collateral`, every
// peer also runs the synthetic local-memory program (half shared pages, half
// private).
struct SkewResult {
  SimTime oo7_elapsed = 0;
  double collateral_ops_per_sec_baseline = 0;  // before OO7 starts
  double collateral_ops_per_sec_during = 0;    // while OO7 runs
  double network_mb = 0;                       // traffic during the OO7 run
  bool completed = false;
  uint64_t trace_records = 0;   // when obs.trace was set (0 if compiled out)
  std::string metrics_json;     // filled when obs requested any output
};
// `obs` lets a caller capture the point's event trace / metrics registry
// (the cluster lives only inside this call, so outputs are finalized here).
SkewResult RunSkewExperiment(PolicyKind policy, double skew,
                             double idle_factor, bool collateral,
                             const PaperScale& s,
                             const ObsConfig& obs = ObsConfig{});

// Figure 12/13 building block: `clients` nodes each run OO7; one idle node
// provides all remote memory.
struct SingleIdleResult {
  SimTime mean_client_elapsed = 0;
  double idle_cpu_utilization = 0;   // fraction of the run busy
  double idle_ops_per_sec = 0;       // getpage+putpage operations served
  bool completed = false;
};
SingleIdleResult RunSingleIdleProvider(uint32_t clients, PolicyKind policy,
                                       const PaperScale& s);

}  // namespace gms

#endif  // SRC_CLUSTER_EXPERIMENTS_H_
