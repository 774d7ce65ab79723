// Memory-hierarchy sizing sweep: how much far memory does it take to pull a
// cluster's overflow traffic off the disks?
//
// A 4-node GMS cluster runs a uniform-random file-backed workload on node 0
// whose footprint exceeds *total* cluster RAM, so steady-state misses must be
// filled from below the global-memory level. The sweep grows every node's
// far-memory tier from nothing to footprint-sized and reports, per point,
// where fills came from (zero/far/disk/NFS) and the measured latency of each
// level — median global getpage hit, mean far read, mean disk read. With the
// cost-model defaults the ordering is global < far < disk, and the
// fills_far/fills_disk crossover shows the capacity where the far tier
// starts absorbing the overflow.
//
//   --json_out=FILE  schema-2 "tier_sweep" document (tools/check_tiers.py
//                    validates the level ordering and the crossover)
//   --trace_out=FILE event trace of the middle capacity point, for the
//                    trace_spans per-tier decomposition (EXPERIMENTS.md)
//   --far_mem_lat=US override the far tier's fixed latency for every point
//   --scale/--seed   as every bench (bench_util.h)
//
// The run ends with the dynamic-capacity chaos case: the standard 4-node
// chaos universe with a fluctuating far tier (ChaosCase::far_fluctuate) under
// 2% loss, checked by the cluster invariant checker — far-tier residency may
// never exceed the instantaneous capacity even while it oscillates.
#include <cstdio>
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/chaos_scenario.h"
#include "src/cluster/cluster.h"
#include "src/cluster/invariants.h"
#include "src/core/directory.h"
#include "src/workload/patterns.h"

namespace {

using namespace gms;

struct SweepPoint {
  uint64_t far_frames = 0;  // per-node far-tier capacity (pages)
  bool completed = false;
  double elapsed_s = 0;
  uint64_t getpage_hits = 0;
  uint64_t getpage_misses = 0;
  uint64_t fills_zero = 0;
  uint64_t fills_far = 0;
  uint64_t fills_disk = 0;
  uint64_t fills_nfs = 0;
  uint64_t demotions_far = 0;
  uint64_t far_promotions = 0;
  uint64_t disk_reads = 0;
  // Per-level latency as measured in this run (0 when the level was unused).
  double getpage_hit_us = 0;  // median, node 0's service histogram
  double far_read_us = 0;     // mean, node 0's far tier
  double disk_read_us = 0;    // mean, node 0's disk
};

SweepPoint RunPoint(uint64_t far_frames, const PaperScale& s,
                    uint32_t frames, uint64_t footprint,
                    const std::string& trace_path = "") {
  ClusterConfig config;
  config.num_nodes = 4;
  config.policy = PolicyKind::kGms;
  config.seed = s.seed;
  config.frames = frames;
  config.far = s.far;  // --far_mem_lat override rides along
  config.far.capacity_pages = far_frames;
  if (!trace_path.empty()) {
    config.obs.trace = true;
    config.obs.trace_path = trace_path;
  }

  Cluster cluster(config);
  cluster.Start();

  // File pages served by node 0's own disk: a miss that no RAM or far tier
  // holds is a local disk read, never a zero fill, so the fill counters
  // partition cleanly across the hierarchy. Reads dominate (clean frames are
  // what demotion can save); the footprint exceeds 4*frames so the overflow
  // is structural, not transient.
  cluster.AddWorkload(
      NodeId{0},
      std::make_unique<UniformRandomPattern>(
          PageSet{MakeFileUid(NodeId{0}, 7, 0), footprint}, footprint * 4,
          Microseconds(30), /*write_fraction=*/0.1),
      "overflow");
  cluster.StartWorkloads();

  SweepPoint p;
  p.far_frames = far_frames;
  p.completed = cluster.RunUntilWorkloadsDone(Seconds(36000));
  cluster.sim().RunFor(Milliseconds(100));  // drain in-flight fills

  const MemoryServiceStats& svc = cluster.service(NodeId{0}).stats();
  p.elapsed_s = ToSeconds(cluster.sim().now());
  p.getpage_hits = svc.getpage_hits;
  p.getpage_misses = svc.getpage_misses;
  p.fills_zero = svc.fills_zero;
  p.fills_far = svc.fills_far;
  p.fills_disk = svc.fills_disk;
  p.fills_nfs = svc.fills_nfs;
  p.demotions_far = svc.demotions_far;
  p.far_promotions = svc.far_promotions;
  p.disk_reads = cluster.totals().disk_reads;
  if (svc.getpage_hit_ns.count() > 0) {
    p.getpage_hit_us =
        static_cast<double>(svc.getpage_hit_ns.Quantile(0.5)) / 1000.0;
  }
  if (const FarMemoryTier* far = cluster.far_tier(NodeId{0})) {
    if (far->stats().read_latency.count() > 0) {
      p.far_read_us = far->stats().read_latency.mean();
    }
  }
  if (cluster.disk(NodeId{0}).stats().read_latency.count() > 0) {
    p.disk_read_us = cluster.disk(NodeId{0}).stats().read_latency.mean();
  }
  if (!trace_path.empty() && cluster.tracer() != nullptr) {
    cluster.tracer()->Finish();
    std::printf("trace -> %s (far_frames=%llu point)\n", trace_path.c_str(),
                static_cast<unsigned long long>(far_frames));
  }
  return p;
}

struct ChaosCheck {
  uint64_t far_frames = 0;
  bool completed = false;
  uint64_t far_evictions = 0;   // capacity-pressure displacements, all nodes
  uint64_t demotions = 0;       // pages the tier absorbed, all nodes
  size_t violations = 0;
  size_t warnings = 0;
};

// The dynamic-capacity adversary: the standard chaos universe (loss,
// partition, retries) with every node's far tier oscillating between full
// and half capacity. The invariant checker proves residency tracked every
// shrink.
ChaosCheck RunChaosCase(const PaperScale& s, uint64_t far_frames) {
  ChaosCase chaos;
  chaos.seed = s.seed;
  chaos.loss = 0.02;
  chaos.far_frames = far_frames;
  chaos.far_fluctuate = true;

  auto cluster = BuildChaosCluster(chaos, /*with_partition=*/true);
  // The chaos universe's RAM comfortably holds its workloads, so nothing
  // demotes on its own; pre-populate every tier past capacity (as a long-dead
  // cold set would have) so the 100 ms oscillation has real entries to
  // displace while the protocol churns. Writes are stamped in the owning
  // node's context to keep the run thread-invariant.
  for (uint32_t i = 0; i < cluster->num_nodes(); i++) {
    FarMemoryTier* far = cluster->far_tier(NodeId{i});
    if (far == nullptr) {
      continue;
    }
    Simulator::ContextScope in_node(cluster->sim(), i + 1);
    for (uint64_t k = 0; k < far_frames * 2; k++) {
      far->WritePage(MakeFileUid(NodeId{i}, 99, static_cast<uint32_t>(k)), {},
                     {});
    }
  }
  cluster->StartWorkloads();
  ChaosCheck c;
  c.far_frames = far_frames;
  c.completed = cluster->RunUntilWorkloadsDone(Seconds(600));
  cluster->RunUntilQuiescent(Seconds(30));
  for (uint32_t i = 0; i < cluster->num_nodes(); i++) {
    if (const FarMemoryTier* far = cluster->far_tier(NodeId{i})) {
      c.far_evictions += far->stats().evictions;
    }
    c.demotions += cluster->service(NodeId{i}).stats().demotions_far;
  }
  const InvariantReport report = ClusterInvariantChecker::Check(*cluster);
  c.violations = report.violations.size();
  c.warnings = report.warnings.size();
  if (!report.ok()) {
    std::printf("%s", report.ToString().c_str());
  }
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gms;
  PaperScale s = BenchScale(argc, argv);
  BenchHeader("Memory-hierarchy sizing sweep (far tier vs disk)", s);

  const uint32_t frames = s.Frames(512);
  const uint64_t footprint = static_cast<uint64_t>(frames) * 6;  // > 4*frames
  const std::vector<uint64_t> grid = {0, frames / 2, frames,
                                      static_cast<uint64_t>(frames) * 2,
                                      footprint};

  std::printf("frames/node=%u footprint=%llu pages\n\n", frames,
              static_cast<unsigned long long>(footprint));
  std::printf("%10s %9s %9s %9s %9s %9s %12s %12s %12s\n", "far_frames",
              "hits", "misses", "f_far", "f_disk", "demote", "hit_med_us",
              "far_mean_us", "disk_mean_us");

  // --trace_out= captures the event trace of the MIDDLE capacity point (the
  // interesting regime where far and disk fills coexist) for trace_spans'
  // per-tier critical-path decomposition (EXPERIMENTS.md walkthrough).
  const std::string trace_out = FlagString(argc, argv, "trace_out");
  std::vector<SweepPoint> points;
  for (uint64_t far_frames : grid) {
    const bool traced = !trace_out.empty() && far_frames == frames;
    SweepPoint p = RunPoint(far_frames, s, frames, footprint,
                            traced ? trace_out : "");
    std::printf("%10llu %9llu %9llu %9llu %9llu %9llu %12.1f %12.1f %12.1f\n",
                static_cast<unsigned long long>(p.far_frames),
                static_cast<unsigned long long>(p.getpage_hits),
                static_cast<unsigned long long>(p.getpage_misses),
                static_cast<unsigned long long>(p.fills_far),
                static_cast<unsigned long long>(p.fills_disk),
                static_cast<unsigned long long>(p.demotions_far),
                p.getpage_hit_us, p.far_read_us, p.disk_read_us);
    points.push_back(p);
  }

  // A deliberately tight tier: the 100 ms capacity oscillation must actually
  // displace pages (evictions > 0) for the invariant check to mean anything.
  std::printf("\n--- chaos: fluctuating far capacity under 2%% loss ---\n");
  const ChaosCheck chaos = RunChaosCase(s, std::max<uint64_t>(frames / 4, 8));
  std::printf(
      "far_frames=%llu demotions=%llu evictions=%llu violations=%zu "
      "warnings=%zu%s\n",
      static_cast<unsigned long long>(chaos.far_frames),
      static_cast<unsigned long long>(chaos.demotions),
      static_cast<unsigned long long>(chaos.far_evictions), chaos.violations,
      chaos.warnings, chaos.violations == 0 ? " OK" : " FAILED");

  const std::string json_out = FlagString(argc, argv, "json_out");
  if (!json_out.empty()) {
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_out.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"schema\": 2,\n  \"kind\": \"tier_sweep\",\n"
                 "  \"scale\": %.6g,\n  \"seed\": %llu,\n"
                 "  \"frames_per_node\": %u,\n  \"footprint_pages\": %llu,\n",
                 s.scale, static_cast<unsigned long long>(s.seed), frames,
                 static_cast<unsigned long long>(footprint));
    std::fprintf(f, "  \"points\": [\n");
    for (size_t i = 0; i < points.size(); i++) {
      const SweepPoint& p = points[i];
      std::fprintf(
          f,
          "    {\"far_frames\": %llu, \"completed\": %s, \"elapsed_s\": %.6f,\n"
          "     \"getpage_hits\": %llu, \"getpage_misses\": %llu,\n"
          "     \"fills_zero\": %llu, \"fills_far\": %llu, "
          "\"fills_disk\": %llu, \"fills_nfs\": %llu,\n"
          "     \"demotions_far\": %llu, \"far_promotions\": %llu, "
          "\"disk_reads\": %llu,\n"
          "     \"getpage_hit_us\": %.3f, \"far_read_us\": %.3f, "
          "\"disk_read_us\": %.3f}%s\n",
          static_cast<unsigned long long>(p.far_frames),
          p.completed ? "true" : "false", p.elapsed_s,
          static_cast<unsigned long long>(p.getpage_hits),
          static_cast<unsigned long long>(p.getpage_misses),
          static_cast<unsigned long long>(p.fills_zero),
          static_cast<unsigned long long>(p.fills_far),
          static_cast<unsigned long long>(p.fills_disk),
          static_cast<unsigned long long>(p.fills_nfs),
          static_cast<unsigned long long>(p.demotions_far),
          static_cast<unsigned long long>(p.far_promotions),
          static_cast<unsigned long long>(p.disk_reads), p.getpage_hit_us,
          p.far_read_us, p.disk_read_us,
          i + 1 == points.size() ? "" : ",");
    }
    std::fprintf(f,
                 "  ],\n  \"chaos\": {\"far_frames\": %llu, "
                 "\"completed\": %s, \"far_evictions\": %llu, "
                 "\"demotions\": %llu,\n"
                 "    \"violations\": %zu, \"warnings\": %zu}\n}\n",
                 static_cast<unsigned long long>(chaos.far_frames),
                 chaos.completed ? "true" : "false",
                 static_cast<unsigned long long>(chaos.far_evictions),
                 static_cast<unsigned long long>(chaos.demotions),
                 chaos.violations, chaos.warnings);
    std::fclose(f);
    std::printf("json -> %s\n", json_out.c_str());
  }
  return chaos.violations == 0 ? 0 : 1;
}
