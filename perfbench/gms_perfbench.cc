// Benchmark program for the GMS simulator.
//
// Runs one named workload through the public Cluster API, repeating a fixed
// amount of simulated work ("a pass") until --seconds of host time have
// elapsed, and prints metrics as one JSON object on the last line of stdout:
// end-to-end metrics with --trace=0, per-layer metrics with --trace=1.
//
//   gms_perfbench --workload=paging_read --seed=1 --seconds=10 --trace=0
//                 [--trace_out=spans.json]
//
// Every number is either host (what running the simulator costs, measured
// here with std::chrono::steady_clock around calls into the library) or sim
// (what the modelled cluster would take, read from the library's stats()
// getters). Sim numbers and the sim_digest repeat exactly for a seed; every
// pass of a run must reproduce them, and the output checks must hold, or the
// run reports failures and exits 1.
//
// Workloads:
//   paging_read     Boeing CAD, Render, Web Query, each alone on node 0 of a
//                   Figure 6 plateau cluster (8 idle peers sharing 250 MB)
//   paging_write    OO7 and VLSI Router on the same cluster shape
//   epoch_scaleout  1000-node gms cluster, 16 frames per node, epoch tree
//                   with fanout 16; 20 epochs with 250 ms metric snapshots,
//                   then one registry export. One node runs a small seeded
//                   probe program, so the simulated outcome depends on the
//                   seed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/experiments.h"
#include "src/cluster/invariants.h"
#include "src/workload/applications.h"
#include "src/workload/patterns.h"

namespace gms {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; i++) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0) {
      return false;
    }
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--trace_out") {
      args->trace_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

// ---------------------------------------------------------------------------
// Spans (traced run only)
// ---------------------------------------------------------------------------

// Spans around each call into a layer, kept in memory and written out when
// the run ends. A span's parent is the span open when it began.
class SpanLog {
 public:
  int Begin(const char* name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, parent, NowNs(), 0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int id) {
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    open_.pop_back();
  }

  // Per span name: count, total seconds, self seconds (duration minus the
  // time covered by child spans).
  struct Totals {
    uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::map<std::string, Totals> Summary() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, Totals> out;
    for (size_t i = 0; i < spans_.size(); i++) {
      const Span& s = spans_[i];
      Totals& t = out[s.name];
      t.count++;
      t.total_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      t.self_s +=
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    }
    return out;
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"spans\":[\n");
    for (size_t i = 0; i < spans_.size(); i++) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}%s\n",
                   i, s.name, s.parent, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Opens a span for the enclosing scope; a no-op when `log` is null (the
// untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), id_(log != nullptr ? log->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// Layer probes recorded by the traced run. Host times are sums, divided by
// their call counts at the end.
struct Probes {
  double next_ns = 0;  // self time of AccessPattern::Next
  uint64_t next_calls = 0;
  double pick_victim_ns = 0;
  uint64_t pick_victim_calls = 0;
  double lookup_ns = 0;
  uint64_t lookup_calls = 0;
  double dirty_frames = 0;  // summed over slice-boundary scans
  uint64_t dirty_scans = 0;
  double index_of_us = 0;
  uint64_t index_of_calls = 0;
  std::vector<double> slice_ms;  // host time per 50 ms RunFor slice
  double slice_s = 0;
  uint64_t slice_events = 0;
};

// Times every AccessPattern::Next of the wrapped pattern (traced run).
class TimedPattern final : public AccessPattern {
 public:
  TimedPattern(std::unique_ptr<AccessPattern> inner, Probes* probes)
      : inner_(std::move(inner)), probes_(probes) {}

  std::optional<AccessOp> Next(Rng& rng) override {
    const Clock::time_point t0 = Clock::now();
    std::optional<AccessOp> op = inner_->Next(rng);
    probes_->next_ns +=
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    probes_->next_calls++;
    return op;
  }

 private:
  std::unique_ptr<AccessPattern> inner_;
  Probes* probes_;
};

// ---------------------------------------------------------------------------
// Digest over simulated statistics (FNV-1a, 64 bit)
// ---------------------------------------------------------------------------

class Digest {
 public:
  void Add(std::string_view bytes) {
    for (const char c : bytes) {
      h_ ^= static_cast<uint8_t>(c);
      h_ *= 1099511628211ull;
    }
  }
  void Add(uint64_t v) {
    char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    Add(std::string_view(buf, sizeof buf));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

// ---------------------------------------------------------------------------
// One pass
// ---------------------------------------------------------------------------

// Result of one pass of a workload. `sim` values are deterministic for the
// seed and must be identical across passes; `host` values are timed, and a
// run reports the fastest pass's wall_s and the median of the others.
struct Pass {
  std::map<std::string, double> host;
  std::map<std::string, double> sim;
  uint64_t digest = 0;
  uint64_t ops = 0;
  uint64_t checks = 0;
  std::vector<std::string> failures;
  uint64_t fault_samples = 0;

  void Check(bool ok, const std::string& what) {
    checks++;
    if (!ok) {
      failures.push_back(what);
    }
  }
};

constexpr SimTime kSlice = Milliseconds(50);
constexpr int kSetupReps = 5;  // setups timed per paging cluster
constexpr double kGlobalAgeBoost = NodeParams{}.global_age_boost;

// Interpolated quantile of a log-bucketed histogram, in microseconds: the
// rank's position inside its bucket is spread linearly over the bucket's
// range, so the estimate moves smoothly with the samples.
double QuantileUs(const LatencyHistogram& h, double q) {
  if (h.count() == 0) {
    return 0;
  }
  const double rank = q * static_cast<double>(h.count() - 1);
  double seen = 0;
  for (int i = 0; i < LatencyHistogram::kNumBuckets; i++) {
    const double n = static_cast<double>(h.bucket(i));
    if (n > 0 && seen + n > rank) {
      const double lo =
          static_cast<double>(LatencyHistogram::BucketLowerBound(i));
      const double hi =
          i + 1 < LatencyHistogram::kNumBuckets
              ? static_cast<double>(LatencyHistogram::BucketLowerBound(i + 1))
              : 2 * lo;
      return (lo + (hi - lo) * (rank - seen + 0.5) / n) / 1e3;
    }
    seen += n;
  }
  return 0;
}

// Reads the active node's frame table at a slice boundary (traced run).
// Every call here is read-only. PickVictim is timed in its dirty-skipping
// form, the one the node's synchronous reclaim path uses.
void ProbeFrameTable(Cluster& cluster, NodeId active, Probes* probes) {
  FrameTable& mutable_table = cluster.frames(active);
  const FrameTable& table = mutable_table;
  constexpr int kReps = 8;
  Clock::time_point t0 = Clock::now();
  const Frame* victim = nullptr;
  for (int i = 0; i < kReps; i++) {
    victim = mutable_table.PickVictim(cluster.sim().now(), kGlobalAgeBoost,
                                      /*require_clean=*/true);
  }
  probes->pick_victim_ns +=
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  probes->pick_victim_calls += kReps;
  (void)victim;

  const uint32_t n = table.num_frames();
  const uint8_t* flags = table.flags_data();
  const Uid* uids = table.uids_data();
  uint64_t dirty = 0;
  std::vector<Uid> resident;
  const uint32_t stride = std::max<uint32_t>(1, n / 64);
  for (uint32_t i = 0; i < n; i++) {
    if ((flags[i] & FrameTable::kFlagInUse) == 0) {
      continue;
    }
    if ((flags[i] & FrameTable::kFlagDirty) != 0) {
      dirty++;
    }
    if (i % stride == 0) {
      resident.push_back(uids[i]);
    }
  }
  probes->dirty_frames += static_cast<double>(dirty);
  probes->dirty_scans++;
  if (!resident.empty()) {
    size_t found = 0;
    t0 = Clock::now();
    for (const Uid& uid : resident) {
      found += table.Lookup(uid) != nullptr ? 1 : 0;
    }
    probes->lookup_ns +=
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    probes->lookup_calls += resident.size();
    (void)found;
  }
}

void ProbeIndexOf(const Cluster& cluster, Probes* probes) {
  const MetricsRegistry& m = cluster.metrics();
  const std::string& last = m.names().back();
  constexpr int kReps = 5;
  const Clock::time_point t0 = Clock::now();
  size_t index = 0;
  for (int i = 0; i < kReps; i++) {
    index += m.IndexOf(last);
  }
  probes->index_of_us +=
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  probes->index_of_calls += kReps;
  (void)index;
}

// Advances the simulation in fixed 50 ms slices until `done()` or the
// deadline — the same RunFor sequence as Cluster::RunUntilWorkloadsDone, so
// the simulated outcome is identical. The traced run times each slice and
// probes the active node's frame table at every boundary.
template <typename Done>
void RunSlices(Cluster& cluster, NodeId active, SimTime max_time,
               SpanLog* spans, Probes* probes, Done done) {
  Simulator& sim = cluster.sim();
  const SimTime deadline = sim.now() + max_time;
  while (!done() && sim.now() < deadline) {
    const SimTime chunk = std::min(kSlice, deadline - sim.now());
    if (probes == nullptr) {
      sim.RunFor(chunk);
      continue;
    }
    const uint64_t events0 = sim.events_processed();
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(spans, "sim.run_for");
      sim.RunFor(chunk);
    }
    const double s = SecondsSince(t0);
    probes->slice_ms.push_back(s * 1e3);
    probes->slice_s += s;
    probes->slice_events += sim.events_processed() - events0;
    ScopedSpan span(spans, "mem.probe");
    ProbeFrameTable(cluster, active, probes);
  }
}

// Digest of every simulated statistic the cluster exposes: the full
// registry export plus per-node CPU accounting, which the registry does not
// carry.
void DigestCluster(Cluster& cluster, const std::string& json, SpanLog* spans,
                   Digest* d) {
  ScopedSpan span(spans, "bench.digest");
  d->Add(json);
  for (uint32_t i = 0; i < cluster.num_nodes(); i++) {
    const Cpu& cpu = cluster.cpu(NodeId{i});
    for (int c = 0; c < static_cast<int>(CpuCategory::kCategoryCount); c++) {
      d->Add(static_cast<uint64_t>(cpu.busy_time(static_cast<CpuCategory>(c))));
      d->Add(cpu.completed(static_cast<CpuCategory>(c)));
    }
  }
  d->Add(static_cast<uint64_t>(cluster.sim().now()));
  d->Add(cluster.sim().events_processed());
}

// Latency histograms of the active node, merged across a workload's
// clusters.
struct Latencies {
  LatencyHistogram fault_ns;
  LatencyHistogram getpage_hit_ns;
};

// Simulated per-layer statistics summed over a cluster into `sim`. `active`
// runs the workload; every other node is a donor. Node 0 is the first epoch
// initiator (the root).
void AddLayerStats(Cluster& cluster, NodeId active,
                   std::map<std::string, double>& sim, Latencies* latencies) {
  const NodeOsStats& os_a = cluster.node_os(active).stats();
  const MemoryServiceStats& svc_a = cluster.service(active).stats();
  sim["node.faults"] += static_cast<double>(os_a.faults);
  sim["core.getpage_attempts"] += static_cast<double>(svc_a.getpage_attempts);
  sim["core.getpage_hits"] += static_cast<double>(svc_a.getpage_hits);
  sim["core.putpages_sent"] += static_cast<double>(svc_a.putpages_sent);
  latencies->fault_ns.Merge(os_a.fault_ns);
  latencies->getpage_hit_ns.Merge(svc_a.getpage_hit_ns);
  StatAccumulator disk_latency;
  for (uint32_t i = 0; i < cluster.num_nodes(); i++) {
    const NodeId id{i};
    const NodeOsStats& os = cluster.node_os(id).stats();
    const MemoryServiceStats& svc = cluster.service(id).stats();
    sim["node.disk_reads"] +=
        static_cast<double>(os.disk_reads + os.nfs_server_disk_reads);
    sim["node.disk_writes"] += static_cast<double>(os.disk_writes);
    sim["core.discards_old"] += static_cast<double>(svc.discards_old);
    sim["core.discards_duplicate"] +=
        static_cast<double>(svc.discards_duplicate);
    sim["core.root_summary_msgs"] +=
        static_cast<double>(svc.epoch_root_summary_msgs);
    sim["core.epochs_started"] += static_cast<double>(svc.epochs_started);
    disk_latency.Merge(cluster.disk(id).stats().read_latency);
    if (id != active) {
      sim["cpu.donor_service_s"] +=
          ToSeconds(cluster.cpu(id).busy_time(CpuCategory::kService));
    }
  }
  sim["disk.read_latency_sum_us"] += disk_latency.sum();
  sim["disk.read_latency_n"] += static_cast<double>(disk_latency.count());
  const Cpu& cpu_a = cluster.cpu(active);
  auto busy = [&](CpuCategory c) { return ToSeconds(cpu_a.busy_time(c)); };
  sim["cpu.active_busy_s.workload"] += busy(CpuCategory::kWorkload);
  sim["cpu.active_busy_s.fault"] += busy(CpuCategory::kFault);
  sim["cpu.active_busy_s.service"] += busy(CpuCategory::kService);
  sim["cpu.active_busy_s.epoch"] += busy(CpuCategory::kEpoch);
  sim["core.root_epoch_cpu_s"] +=
      ToSeconds(cluster.cpu(NodeId{0}).busy_time(CpuCategory::kEpoch));
  const Counter& net = cluster.net().total_traffic();
  sim["net.messages"] += static_cast<double>(net.events);
  sim["net.mb"] += static_cast<double>(net.bytes) / (1024.0 * 1024.0);
  if (const GmsAgent* root = cluster.gms_agent(NodeId{0})) {
    sim["core.epochs"] += static_cast<double>(root->epoch_view().epoch);
  }
  sim["obs.metrics_registered"] +=
      static_cast<double>(cluster.metrics().size());
}

// Checks every node's fill accounting: each getpage miss is filled from
// exactly one tier.
void CheckFills(Cluster& cluster, Pass& p) {
  for (uint32_t i = 0; i < cluster.num_nodes(); i++) {
    const MemoryServiceStats& s = cluster.service(NodeId{i}).stats();
    if (s.fills_zero + s.fills_far + s.fills_disk + s.fills_nfs !=
        s.getpage_misses) {
      p.Check(false, "fill accounting on node " + std::to_string(i));
      return;
    }
  }
  p.Check(true, "fill accounting");
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Builds and starts `reps` clusters from `config`, timing each; keeps the
// last one. Reports the medians as the pass's setup time.
std::unique_ptr<Cluster> SetUp(const ClusterConfig& config, int reps,
                               SpanLog* spans, Pass& p) {
  std::unique_ptr<Cluster> cluster;
  std::vector<double> setup_s;
  std::vector<double> ctor_s;
  std::vector<double> start_s;
  for (int rep = 0; rep < reps; rep++) {
    cluster.reset();
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(spans, "cluster.ctor");
      cluster = std::make_unique<Cluster>(config);
    }
    const Clock::time_point t1 = Clock::now();
    {
      ScopedSpan span(spans, "cluster.start");
      cluster->Start();
    }
    setup_s.push_back(SecondsSince(t0));
    ctor_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    start_s.push_back(SecondsSince(t1));
  }
  p.host["setup_s"] += Median(setup_s);
  p.host["cluster.ctor_s"] += Median(ctor_s);
  p.host["cluster.start_s"] += Median(start_s);
  return cluster;
}

// Adds the active node's workload, wrapped in the Next timer when traced.
WorkloadDriver& AddWorkload(Cluster& cluster, NodeId node,
                            std::unique_ptr<AccessPattern> pattern,
                            const std::string& name, Probes* probes) {
  if (probes != nullptr) {
    pattern = std::make_unique<TimedPattern>(std::move(pattern), probes);
  }
  return cluster.AddWorkload(node, std::move(pattern), name);
}

// Exports the registry, timed as the obs export.
std::string Export(Cluster& cluster, SpanLog* spans, Probes* probes, Pass& p) {
  if (probes != nullptr) {
    ScopedSpan span(spans, "obs.index_of");
    ProbeIndexOf(cluster, probes);
  }
  const Clock::time_point t0 = Clock::now();
  std::string json;
  {
    ScopedSpan span(spans, "obs.to_json");
    json = cluster.metrics().ToJson();
  }
  p.host["obs.export_s"] += SecondsSince(t0);
  p.sim["obs.export_mb"] +=
      static_cast<double>(json.size()) / (1024.0 * 1024.0);
  return json;
}

void SetLatencies(const Latencies& l, Pass& p) {
  p.fault_samples = l.fault_ns.count();
  p.sim["fault_p50_us"] = QuantileUs(l.fault_ns, 0.50);
  p.sim["fault_p99_us"] = QuantileUs(l.fault_ns, 0.99);
  p.sim["core.getpage_hit_p50_us"] = QuantileUs(l.getpage_hit_ns, 0.50);
}

// --- paging workloads ------------------------------------------------------

// Figure 6 plateau: node 0 runs `app` alone with 8 idle peers sharing 250 MB
// of idle memory, plus an NFS server for CAD. Paper-sized (scale 1); the
// same shape as RunAppAlone (src/cluster/experiments.h).
ClusterConfig PagingConfig(AppKind app, uint64_t seed, NodeId* server) {
  constexpr uint32_t kIdleNodes = 8;
  constexpr double kIdleMb = 250;
  const bool needs_server = app == AppKind::kBoeingCad;
  const uint32_t num_nodes = 1 + kIdleNodes + (needs_server ? 1 : 0);
  PaperScale s;
  s.scale = 1.0;
  s.seed = seed;
  ClusterConfig config = PaperConfig(PolicyKind::kGms, num_nodes, s);
  config.frames_per_node.assign(num_nodes, 0);
  config.frames_per_node[0] = s.Frames();
  // An idle node keeps a free watermark of ~2*frames/64 out of its offer.
  const uint64_t share = s.PagesOfMb(kIdleMb) / kIdleNodes;
  for (uint32_t i = 1; i <= kIdleNodes; i++) {
    config.frames_per_node[i] = static_cast<uint32_t>(share * 33 / 32 + 16);
  }
  *server = NodeId{needs_server ? num_nodes - 1 : 0};
  if (needs_server) {
    config.frames_per_node[server->value] = s.Frames(1024);
  }
  return config;
}

void RunPagingApp(AppKind app, uint64_t seed, SpanLog* spans, Probes* probes,
                  Pass& p, Latencies* latencies, Digest* digest) {
  ScopedSpan app_span(spans, AppName(app));
  const std::string label = AppName(app);
  constexpr NodeId kActive{0};
  NodeId server;
  const ClusterConfig config = PagingConfig(app, seed, &server);
  std::unique_ptr<Cluster> cluster = SetUp(config, kSetupReps, spans, p);

  // The measured work: build the application's input stream and run it to
  // completion.
  Simulator& sim = cluster->sim();
  const Clock::time_point t0 = Clock::now();
  AppSpec spec;
  {
    ScopedSpan span(spans, "workload.make_app");
    spec = MakeApp(app, kActive, server, 1.0, seed);
  }
  WorkloadDriver& w =
      AddWorkload(*cluster, kActive, std::move(spec.pattern), spec.name, probes);
  w.Start();
  const SimTime sim0 = sim.now();
  const uint64_t events0 = sim.events_processed();
  constexpr SimTime kMaxTime = Seconds(7200);
  if (probes == nullptr) {
    cluster->RunUntilWorkloadsDone(kMaxTime);
  } else {
    RunSlices(*cluster, kActive, kMaxTime, spans, probes,
              [&] { return cluster->AllWorkloadsFinished(); });
  }
  p.host["wall_s"] += SecondsSince(t0);
  p.sim["sim_elapsed_s"] += ToSeconds(w.elapsed());
  p.sim["sim.sim_s"] += ToSeconds(sim.now() - sim0);
  p.sim["sim.events"] += static_cast<double>(sim.events_processed() - events0);
  p.sim["workload.ops"] += static_cast<double>(w.ops());
  p.ops += w.ops();

  // Output checks.
  ScopedSpan check_span(spans, "bench.check");
  p.Check(w.finished(), label + " finished its ops");
  bool quiet = false;
  {
    ScopedSpan span(spans, "cluster.run_until_quiescent");
    quiet = cluster->RunUntilQuiescent();
  }
  p.Check(quiet, label + " quiesced");
  {
    ScopedSpan span(spans, "cluster.invariant_check");
    const InvariantReport report = ClusterInvariantChecker::Check(*cluster);
    p.Check(report.ok(), label + " invariants: " + report.ToString());
  }
  CheckFills(*cluster, p);
  AddLayerStats(*cluster, kActive, p.sim, latencies);
  DigestCluster(*cluster, Export(*cluster, spans, probes, p), spans, digest);
}

Pass RunPagingPass(const std::vector<AppKind>& apps, uint64_t seed,
                   SpanLog* spans, Probes* probes) {
  Pass p;
  Digest digest;
  Latencies latencies;
  for (const AppKind app : apps) {
    RunPagingApp(app, seed, spans, probes, p, &latencies, &digest);
  }
  SetLatencies(latencies, p);
  p.digest = digest.value();
  return p;
}

// --- epoch_scaleout --------------------------------------------------------

constexpr uint32_t kScaleNodes = 1000;
constexpr uint32_t kScaleFanout = 16;
constexpr uint64_t kScaleEpochs = 20;

Pass RunEpochPass(uint64_t seed, SpanLog* spans, Probes* probes) {
  Pass p;
  ScopedSpan pass_span(spans, "epoch_scaleout");
  // Set up like RunEpochScaleout (bench/bench_util.h).
  ClusterConfig config;
  config.num_nodes = kScaleNodes;
  config.policy = PolicyKind::kGms;
  config.frames = 16;
  config.seed = seed;
  config.gms.epoch.t_min = Milliseconds(200);
  config.gms.epoch.t_max = Milliseconds(400);
  config.gms.epoch.summary_timeout = Milliseconds(100);
  config.gms.epoch.fanout = kScaleFanout;
  config.obs.snapshot_interval = Milliseconds(250);
  std::unique_ptr<Cluster> cluster = SetUp(config, 1, spans, p);

  // The measured work: 20 epochs, then one registry export. In this idle
  // cluster the epoch schedule is the same for every seed, so the last node
  // also runs a seeded read-only program over 64 pages (4x its frames): its
  // faults cross a 1000-node cluster, and it is sized to finish between the
  // 20th epoch (~4.62 sim-s) and the 21st, so its exact completion time sets
  // the workload's simulated elapsed time.
  Simulator& sim = cluster->sim();
  const GmsAgent* root = cluster->gms_agent(NodeId{0});
  const NodeId active{kScaleNodes - 1};
  const Clock::time_point t0 = Clock::now();
  WorkloadDriver& w = AddWorkload(
      *cluster, active,
      std::make_unique<UniformRandomPattern>(
          PageSet{MakeAnonUid(active, 9, 0), 64}, /*total_ops=*/3100,
          Microseconds(1500)),
      "probe", probes);
  w.Start();
  SimTime epochs_done_at = -1;  // end of the slice that saw the 20th epoch
  RunSlices(*cluster, active, Seconds(45), spans, probes, [&] {
    if (epochs_done_at < 0 && root->epoch_view().epoch >= kScaleEpochs) {
      epochs_done_at = sim.now();
    }
    return epochs_done_at >= 0 && w.finished();
  });
  p.sim["sim_elapsed_s"] = ToSeconds(std::max(w.finished_at(), epochs_done_at));
  p.sim["sim.sim_s"] = ToSeconds(sim.now());
  p.sim["sim.events"] = static_cast<double>(sim.events_processed());
  p.sim["workload.ops"] = static_cast<double>(w.ops());
  p.ops += w.ops();
  uint64_t snapshot_values = 0;
  for (const auto& snap : cluster->metrics().snapshots()) {
    snapshot_values += snap.values.size();
  }
  p.sim["obs.snapshot_values"] = static_cast<double>(snapshot_values);
  const std::string json = Export(*cluster, spans, probes, p);
  p.host["wall_s"] = SecondsSince(t0);
  Digest digest;
  DigestCluster(*cluster, json, spans, &digest);
  p.digest = digest.value();

  // Output checks.
  ScopedSpan check_span(spans, "bench.check");
  const uint64_t epochs = root->epoch_view().epoch;
  p.Check(epochs >= kScaleEpochs, "epoch_scaleout reached 20 epochs");
  p.Check(w.finished(), "probe finished its ops");
  bool root_bounded = true;  // per initiator, over its collection rounds
  for (uint32_t i = 0; i < kScaleNodes; i++) {
    const MemoryServiceStats& s = cluster->service(NodeId{i}).stats();
    root_bounded &= s.epoch_root_summary_msgs <= kScaleFanout * s.epochs_started;
  }
  p.Check(root_bounded, "root absorbs at most fanout partials per epoch");
  CheckFills(*cluster, p);
  Latencies latencies;
  AddLayerStats(*cluster, active, p.sim, &latencies);
  SetLatencies(latencies, p);
  {
    ScopedSpan span(spans, "cluster.dtor");
    cluster.reset();
  }
  return p;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); i++) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// Highest of a fixed percentile ladder with at least ten samples beyond it.
double TailPercentile(size_t samples) {
  double best = 50;
  for (const double pct : {90.0, 95.0, 99.0, 99.9}) {
    if (static_cast<double>(samples) * (1 - pct / 100) >= 10) {
      best = pct;
    }
  }
  return best;
}

double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double rank = pct / 100 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: gms_perfbench --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 [--trace_out=PATH]\n");
    return 2;
  }
  std::vector<AppKind> apps;
  if (args.workload == "paging_read") {
    apps = {AppKind::kBoeingCad, AppKind::kRender, AppKind::kWebQuery};
  } else if (args.workload == "paging_write") {
    apps = {AppKind::kOO7, AppKind::kVlsiRouter};
  } else if (args.workload != "epoch_scaleout") {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const bool epoch = apps.empty();

  // Untraced run: passes until --seconds elapse (at least three). Traced
  // run: alternating untraced and traced passes, so the tracing overhead
  // compares passes made under the same host conditions.
  constexpr int kMinPasses = 3;
  SpanLog span_log;
  Probes probes;
  std::vector<Pass> passes;       // untraced
  std::vector<Pass> traced;       // traced (--trace=1 only)
  const Clock::time_point start = Clock::now();
  auto run_pass = [&](bool with_trace) {
    SpanLog* spans = with_trace ? &span_log : nullptr;
    Probes* pr = with_trace ? &probes : nullptr;
    return epoch ? RunEpochPass(args.seed, spans, pr)
                 : RunPagingPass(apps, args.seed, spans, pr);
  };
  while (passes.size() < kMinPasses || SecondsSince(start) < args.seconds) {
    passes.push_back(run_pass(false));
    if (args.trace) {
      traced.push_back(run_pass(true));
    }
  }

  // Every pass must reproduce the first pass's simulated outcome.
  const Pass& first = passes.front();
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  auto account = [&](const Pass& p, const char* label) {
    attempted += p.ops + p.checks + 1;  // + the reproduction check below
    failed += p.failures.size();
    for (const std::string& f : p.failures) {
      failures.push_back(f);
    }
    if (p.sim != first.sim || p.digest != first.digest) {
      failed++;
      failures.push_back(std::string(label) +
                         " pass differs from the first pass's simulated outcome");
    }
  };
  for (const Pass& p : passes) {
    account(p, "untraced");
  }
  for (const Pass& p : traced) {
    account(p, "traced");
  }

  auto host_values = [](const std::vector<Pass>& ps, const std::string& key) {
    std::vector<double> v;
    for (const Pass& p : ps) {
      v.push_back(p.host.at(key));
    }
    return v;
  };
  auto host_median = [&](const std::vector<Pass>& ps, const std::string& key) {
    return Median(host_values(ps, key));
  };
  // The fastest pass. The simulator is bound by memory latency, and on a
  // host whose memory system is shared, other tenants' load slows whole
  // stretches of passes by up to 2x while the work stays identical; noise
  // only adds time, so the minimum is the steady estimate of the work's
  // cost. The median is printed beside it.
  auto host_min = [&](const std::vector<Pass>& ps, const std::string& key) {
    const std::vector<double> v = host_values(ps, key);
    return *std::min_element(v.begin(), v.end());
  };
  auto sim = [&](const std::string& key) {
    auto it = first.sim.find(key);
    return it == first.sim.end() ? 0.0 : it->second;
  };

  std::printf("workload %s seed %llu: %zu passes%s in %.2f s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              passes.size(), args.trace ? " (+ as many traced)" : "",
              SecondsSince(start));
  std::printf("sim_digest %016llx\n", static_cast<unsigned long long>(first.digest));
  std::printf("pass wall_s");
  for (const Pass& p : passes) {
    std::printf(" %.4f", p.host.at("wall_s"));
  }
  std::printf("\nmedian pass wall_s %.6g\n", host_median(passes, "wall_s"));
  std::printf("fault samples %llu\n",
              static_cast<unsigned long long>(first.fault_samples));
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("ops_failed_frac %.6g (%llu failed of %llu attempted)\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  std::vector<Metric> out;
  const double wall = host_min(passes, "wall_s");
  if (!args.trace) {
    out = {
        {"wall_s", wall, "s"},
        {"setup_s", host_median(passes, "setup_s"), "s"},
        {"events_per_s", sim("sim.events") / wall, "1/s"},
        {"sim_s_per_wall_s", sim("sim.sim_s") / wall, "s/s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"sim_elapsed_s", sim("sim_elapsed_s"), "s"},
        {"fault_p50_us", sim("fault_p50_us"), "us"},
        {"fault_p99_us", sim("fault_p99_us"), "us"},
    };
  } else {
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double tail = TailPercentile(probes.slice_ms.size());
    const double epochs = sim("core.epochs");
    out = {
        {"cluster.ctor_s", host_median(traced, "cluster.ctor_s"), "s"},
        {"cluster.start_s", host_median(traced, "cluster.start_s"), "s"},
        {"obs.metrics_registered", sim("obs.metrics_registered"), "count"},
        {"obs.index_of_us", ratio(probes.index_of_us, probes.index_of_calls), "us"},
        {"obs.snapshot_values", sim("obs.snapshot_values"), "count"},
        {"obs.export_s", host_median(traced, "obs.export_s"), "s"},
        {"obs.export_mb", sim("obs.export_mb"), "MB"},
        {"core.epochs", epochs, "count"},
        {"core.epoch_root_msgs_per_epoch", ratio(sim("core.root_summary_msgs"), sim("core.epochs_started")), "count"},
        {"core.root_epoch_cpu_us_per_epoch", ratio(sim("core.root_epoch_cpu_s") * 1e6, epochs), "us"},
        {"sim.events", sim("sim.events"), "count"},
        {"sim.host_ns_per_event", ratio(probes.slice_s * 1e9, probes.slice_events), "ns"},
        {"sim.slices", static_cast<double>(probes.slice_ms.size()), "count"},
        {"sim.slice_ms_p50", Percentile(probes.slice_ms, 50), "ms"},
        {"sim.slice_ms_ptail", Percentile(probes.slice_ms, tail), "ms"},
        {"sim.slice_ptail_pct", tail, "%"},
        {"mem.pick_victim_ns", ratio(probes.pick_victim_ns, probes.pick_victim_calls), "ns"},
        {"mem.lookup_ns", ratio(probes.lookup_ns, probes.lookup_calls), "ns"},
        {"mem.dirty_frames", ratio(probes.dirty_frames, probes.dirty_scans), "count"},
        {"workload.ops", sim("workload.ops"), "count"},
        {"workload.next_ns", ratio(probes.next_ns, probes.next_calls), "ns"},
        {"core.getpage_attempts", sim("core.getpage_attempts"), "count"},
        {"core.getpage_hit_ratio", ratio(sim("core.getpage_hits"), sim("core.getpage_attempts")), "ratio"},
        {"core.putpage_reuse_ratio", ratio(sim("core.getpage_hits"), sim("core.putpages_sent")), "ratio"},
        {"core.discards_old", sim("core.discards_old"), "count"},
        {"core.discards_duplicate", sim("core.discards_duplicate"), "count"},
        {"core.getpage_hit_p50_us", sim("core.getpage_hit_p50_us"), "us"},
        {"node.faults", sim("node.faults"), "count"},
        {"node.disk_reads", sim("node.disk_reads"), "count"},
        {"node.disk_writes", sim("node.disk_writes"), "count"},
        {"disk.read_latency_mean_us", ratio(sim("disk.read_latency_sum_us"), sim("disk.read_latency_n")), "us"},
        {"net.messages", sim("net.messages"), "count"},
        {"net.mb", sim("net.mb"), "MB"},
        {"cpu.active_busy_s.workload", sim("cpu.active_busy_s.workload"), "s"},
        {"cpu.active_busy_s.fault", sim("cpu.active_busy_s.fault"), "s"},
        {"cpu.active_busy_s.service", sim("cpu.active_busy_s.service"), "s"},
        {"cpu.active_busy_s.epoch", sim("cpu.active_busy_s.epoch"), "s"},
        {"cpu.donor_service_s", sim("cpu.donor_service_s"), "s"},
        {"bench.trace_overhead_frac", host_min(traced, "wall_s") / wall - 1, "ratio"},
    };
    if (!args.trace_out.empty() && !span_log.Write(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      failed++;
    }
    std::printf("%-28s %8s %12s %12s\n", "span", "count", "total_s", "self_s");
    for (const auto& [name, t] : span_log.Summary()) {
      std::printf("%-28s %8llu %12.6f %12.6f\n", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_s, t.self_s);
    }
  }
  PrintResult(failed == 0, attempted, failed, out);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace gms

int main(int argc, char** argv) { return gms::Main(argc, argv); }
