// Shared helpers for the table/figure reproduction binaries.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "src/cluster/experiments.h"
#include "src/cluster/policy_registry.h"

namespace gms {

// Parses "--name=value" string flags (paths, mode names) from argv.
inline std::string FlagString(int argc, char** argv, const std::string& name,
                              const std::string& fallback = "") {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

// Parses the memory-hierarchy flags every bench accepts:
//   --tiering=on|off     attach a far-memory tier to every node (off = the
//                        two-level original; on picks a default capacity of
//                        1024 pages unless --far_mem_frames says otherwise)
//   --far_mem_frames=N   far-tier capacity in pages per node (implies on)
//   --far_mem_lat=US     fixed access latency in microseconds (default from
//                        the cost model: 1800)
inline void ParseTierFlags(int argc, char** argv, FarMemoryParams* far) {
  const std::string tiering = FlagString(argc, argv, "tiering");
  const double frames = FlagValue(argc, argv, "far_mem_frames", 0);
  const double lat_us = FlagValue(argc, argv, "far_mem_lat", 0);
  if (tiering == "off") {
    far->capacity_pages = 0;
    return;
  }
  if (tiering.empty() && frames <= 0) {
    return;  // default: no tier
  }
  if (!tiering.empty() && tiering != "on") {
    std::fprintf(stderr, "bad --tiering=%s (want on or off)\n",
                 tiering.c_str());
    std::exit(1);
  }
  far->capacity_pages = frames > 0 ? static_cast<uint64_t>(frames) : 1024;
  if (lat_us > 0) {
    far->fixed_latency = Microseconds(static_cast<SimTime>(lat_us));
  }
}

// Every bench accepts --scale=, --seed= and the tier flags (ParseTierFlags
// above). The default scale of 0.25 keeps a full bench run to seconds while
// preserving every memory-pressure ratio; pass --scale=1 for paper-sized
// runs. Multi-point benches also accept --threads=N, the size of their
// point pool (SweepThreads, src/cluster/sweep.h): each pool thread runs one
// whole serial cluster, and every printed number is invariant to it.
inline PaperScale BenchScale(int argc, char** argv, double default_scale = 0.25) {
  PaperScale s;
  s.scale = FlagValue(argc, argv, "scale", default_scale);
  s.seed = static_cast<uint64_t>(FlagValue(argc, argv, "seed", 1));
  ParseTierFlags(argc, argv, &s.far);
  return s;
}

// Resolves one policy name through the registry or exits: unknown names are
// a hard error listing every registered choice; the special name "list"
// prints the registry to stdout and exits 0, so `--policy=list` works as
// discovery on every bench. `flag_name` labels the error ("policy",
// "policies", ...).
inline PolicyKind PolicyFlagOrDie(const std::string& flag_name,
                                  const std::string& name) {
  if (name == "list") {
    std::printf("%s\n", KnownPolicyNames().c_str());
    std::exit(0);
  }
  if (const std::optional<PolicyKind> kind = ParsePolicyName(name)) {
    return *kind;
  }
  std::fprintf(stderr, "unknown --%s=%s (known: %s)\n", flag_name.c_str(),
               name.c_str(), KnownPolicyNames().c_str());
  std::exit(1);
}

// Parses --policy=<name> through the policy registry. Benches default to the
// paper's algorithm; an unknown name is a hard error listing the choices and
// --policy=list prints them.
inline PolicyKind BenchPolicy(int argc, char** argv,
                              PolicyKind fallback = PolicyKind::kGms) {
  const std::string name = FlagString(argc, argv, "policy");
  if (name.empty()) {
    return fallback;
  }
  return PolicyFlagOrDie("policy", name);
}

// Parses --epoch_fanout=: "flat" (or 0) selects the flat epoch protocol;
// a number is the branching factor of the hierarchical aggregation tree.
inline uint32_t BenchEpochFanout(int argc, char** argv,
                                 uint32_t fallback = 0) {
  const std::string v = FlagString(argc, argv, "epoch_fanout");
  if (v.empty()) {
    return fallback;
  }
  if (v == "flat") {
    return 0;
  }
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0') {
    std::fprintf(stderr, "bad --epoch_fanout=%s (want \"flat\" or a number)\n",
                 v.c_str());
    std::exit(1);
  }
  return static_cast<uint32_t>(parsed);
}

// One epoch scale-out measurement point: an idle N-node cluster (only free
// frames, so summaries are cheap and time-invariant) run until the initiator
// has completed `target_epochs` rounds. What scales with N vs fanout is the
// question, so the result isolates the root's view: how many summary
// messages it absorbed per round and how much CPU it burned in the epoch
// category. Flat mode absorbs N-1 summaries per round at the root; tree
// mode absorbs ~fanout partials.
struct EpochScaleoutResult {
  uint32_t nodes = 0;
  uint32_t fanout = 0;
  uint64_t epochs = 0;
  double root_summary_msgs_per_epoch = 0;
  double root_epoch_cpu_us_per_epoch = 0;
  double sim_s = 0;  // simulated seconds consumed by the rounds
};

// `metrics_out`, when non-empty, dumps the point's metrics registry (with a
// snapshot series over the measured rounds) to `<metrics_out>` — epoch_cost
// and fig7_scaleout pass per-point file names.
inline EpochScaleoutResult RunEpochScaleout(uint32_t nodes, uint32_t fanout,
                                            uint64_t target_epochs = 3,
                                            const std::string& metrics_out = "") {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.policy = PolicyKind::kGms;
  config.frames = 16;
  config.seed = 1;
  config.gms.epoch.t_min = Milliseconds(200);
  config.gms.epoch.t_max = Milliseconds(400);
  config.gms.epoch.summary_timeout = Milliseconds(100);
  config.gms.epoch.fanout = fanout;
  if (!metrics_out.empty()) {
    config.obs.snapshot_interval = Milliseconds(250);
  }
  Cluster cluster(config);
  cluster.Start();

  const GmsAgent* root = cluster.gms_agent(NodeId{0});
  const SimTime deadline =
      Seconds(2) * static_cast<SimTime>(target_epochs) + Seconds(5);
  while (root->epoch_view().epoch < target_epochs &&
         cluster.sim().now() < deadline) {
    cluster.sim().RunFor(Milliseconds(50));
  }

  EpochScaleoutResult r;
  r.nodes = nodes;
  r.fanout = fanout;
  r.epochs = root->epoch_view().epoch;
  if (r.epochs > 0) {
    const double epochs = static_cast<double>(r.epochs);
    r.root_summary_msgs_per_epoch =
        static_cast<double>(
            cluster.service(NodeId{0}).stats().epoch_root_summary_msgs) /
        epochs;
    r.root_epoch_cpu_us_per_epoch =
        ToSeconds(cluster.cpu(NodeId{0}).busy_time(CpuCategory::kEpoch)) *
        1e6 / epochs;
  }
  r.sim_s = ToSeconds(cluster.sim().now());
  if (!metrics_out.empty()) {
    if (std::FILE* f = std::fopen(metrics_out.c_str(), "w")) {
      const std::string json = cluster.metrics().ToJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("metrics -> %s\n", metrics_out.c_str());
    } else {
      std::fprintf(stderr, "cannot open %s\n", metrics_out.c_str());
    }
  }
  return r;
}

// Direct form of ParseTierFlags for benches that build a raw ClusterConfig
// in main(). Call before constructing the Cluster.
inline void ApplyTierFlags(int argc, char** argv, ClusterConfig* config) {
  ParseTierFlags(argc, argv, &config->far);
}

// Below scale 1 the header says how to get paper-sized runs.
inline void BenchHeader(const std::string& title, const PaperScale& s) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("(scale=%.3g seed=%llu%s)\n\n", s.scale,
              static_cast<unsigned long long>(s.seed),
              s.scale < 1 ? "; pass --scale=1 for paper-sized runs" : "");
}

// Every bench accepts --trace_out=, --metrics_out= and --health_out=: the
// run's binary event trace (tools/trace_stats.py, tools/trace_spans), the
// metrics registry JSON, and the health monitor's incident report
// (tools/check_health.py). Call ApplyObsFlags before constructing the
// Cluster and WriteObsOutputs after the measured work.
inline void ApplyObsFlags(int argc, char** argv, ObsConfig* obs) {
  const std::string trace_out = FlagString(argc, argv, "trace_out");
  if (!trace_out.empty()) {
    obs->trace = true;
    obs->trace_path = trace_out;
  }
  if (!FlagString(argc, argv, "metrics_out").empty() &&
      obs->snapshot_interval == 0) {
    obs->snapshot_interval = Milliseconds(250);
  }
  if (!FlagString(argc, argv, "health_out").empty()) {
    obs->health = true;
  }
}

inline int WriteObsOutputs(int argc, char** argv, Cluster& cluster) {
  const std::string trace_out = FlagString(argc, argv, "trace_out");
  const std::string metrics_out = FlagString(argc, argv, "metrics_out");
  if (!trace_out.empty()) {
    if (Tracer* tracer = cluster.tracer()) {
      tracer->Finish();
      std::printf("trace -> %s (%llu records)\n", trace_out.c_str(),
                  static_cast<unsigned long long>(tracer->records_recorded()));
    } else {
      std::printf("TRACE_DISABLED (compiled out); no trace written\n");
    }
  }
  if (!metrics_out.empty()) {
    std::FILE* f = std::fopen(metrics_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", metrics_out.c_str());
      return 1;
    }
    const std::string json = cluster.metrics().ToJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("metrics -> %s\n", metrics_out.c_str());
  }
  const std::string health_out = FlagString(argc, argv, "health_out");
  if (!health_out.empty()) {
    if (const HealthMonitor* health = cluster.health()) {
      std::FILE* f = std::fopen(health_out.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", health_out.c_str());
        return 1;
      }
      const std::string json = health->ToJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("health -> %s (%llu incidents)\n", health_out.c_str(),
                  static_cast<unsigned long long>(health->incidents().size()));
    }
  }
  return 0;
}

}  // namespace gms

#endif  // BENCH_BENCH_UTIL_H_
