// Observability capture: runs a paper-style mixed workload (anonymous pages
// overflowing into cluster memory + NFS-backed shared file reads) on an
// 8-node GMS cluster with the src/obs tracer and metrics registry enabled.
//
//   --trace_out=FILE    write the binary event trace (GMSTRC00 format;
//                       tools/trace_stats.py parses it)
//   --metrics_out=FILE  write the metrics-registry JSON export
//   --health_out=FILE   enable the health monitor and write its incident
//                       report (tools/check_health.py validates it)
//   --ring_capacity=N   per-node ring size in records (default 16384); the
//                       ring flushes to the file when full, so smaller rings
//                       trade write frequency for memory, never records
//   --policy=NAME       replacement policy (gms, nchance, local, ensemble;
//                       default gms) — the CI policy matrix runs all of them
//   --tiering= / --far_mem_frames= / --far_mem_lat=  attach a far-memory
//                       tier to every node (bench_util.h ApplyTierFlags);
//                       off by default, and the default digest is unchanged
//
// Always prints a "TRACE_DIGEST fnv1a:<hex>:<count>" line: CI's trace-smoke
// job re-derives the digest from the trace file with tools/trace_stats.py
// and fails on any mismatch (file corruption, schema drift, lost records).
#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/cluster/cluster.h"
#include "src/core/directory.h"
#include "src/workload/patterns.h"

int main(int argc, char** argv) {
  using namespace gms;
  PaperScale s = BenchScale(argc, argv);
  const std::string trace_out = FlagString(argc, argv, "trace_out");
  const std::string metrics_out = FlagString(argc, argv, "metrics_out");
  BenchHeader("Observability capture (event trace + metrics)", s);

  ClusterConfig config;
  config.num_nodes = 8;
  config.policy = BenchPolicy(argc, argv);
  std::printf("policy=%s\n", PolicyName(config.policy));
  config.seed = s.seed;
  const uint32_t frames = s.Frames(1024);
  // Node 0 is the active workstation; peers hold idle memory.
  config.frames = frames * 2;
  config.frames_per_node = {frames};
  config.obs.trace = true;
  config.obs.trace_path = trace_out;
  config.obs.trace_ring_capacity = static_cast<uint32_t>(
      FlagValue(argc, argv, "ring_capacity", config.obs.trace_ring_capacity));
  config.obs.snapshot_interval = Milliseconds(250);
  const std::string health_out = FlagString(argc, argv, "health_out");
  config.obs.health = !health_out.empty();
  ApplyTierFlags(argc, argv, &config);
  if (config.far.capacity_pages > 0) {
    std::printf("tiering=on far_mem_frames=%llu\n",
                static_cast<unsigned long long>(config.far.capacity_pages));
  }

  Cluster cluster(config);
  cluster.Start();

  // Anonymous working set 3x node 0's memory: steady-state putpage+getpage
  // traffic into the idle nodes.
  const uint64_t footprint = frames * 3;
  cluster.AddWorkload(
      NodeId{0},
      std::make_unique<UniformRandomPattern>(
          PageSet{MakeAnonUid(NodeId{0}, 1, 0), footprint}, footprint * 4,
          Microseconds(30), /*write_fraction=*/0.3),
      "anon");
  // A second node streaming a file served by node 2: NFS reads, server disk
  // reads, and shared-page getpage hits all appear in the trace.
  cluster.AddWorkload(
      NodeId{1},
      std::make_unique<SequentialPattern>(
          PageSet{MakeFileUid(NodeId{2}, 40, 0), frames}, frames * 2,
          Microseconds(30)),
      "file");
  cluster.StartWorkloads();
  if (!cluster.RunUntilWorkloadsDone()) {
    std::printf("WARNING: workloads did not finish\n");
  }
  cluster.sim().RunFor(Milliseconds(100));  // drain in-flight protocol work

  Tracer* tracer = cluster.tracer();
  if (tracer == nullptr) {
    // -DGMS_TRACE=OFF build: nothing to capture, and CI must notice rather
    // than diff empty output.
    std::printf("TRACE_DISABLED (compiled out)\n");
    return 0;
  }
  tracer->Finish();

  const Cluster::Totals t = cluster.totals();
  std::printf("accesses=%llu local_hits=%llu faults=%llu getpage_hits=%llu\n",
              static_cast<unsigned long long>(t.accesses),
              static_cast<unsigned long long>(t.local_hits),
              static_cast<unsigned long long>(t.faults),
              static_cast<unsigned long long>(t.getpage_hits));
  std::printf("trace_records=%llu metric_snapshots=%zu\n",
              static_cast<unsigned long long>(tracer->records_recorded()),
              cluster.metrics().snapshots().size());

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
      std::printf("health -> %s (%zu incidents)\n", health_out.c_str(),
                  health->incidents().size());
    }
  }
  if (!trace_out.empty()) {
    std::printf("trace -> %s\n", trace_out.c_str());
  }
  std::printf("TRACE_DIGEST %s\n", tracer->digest().ToString().c_str());
  return 0;
}
