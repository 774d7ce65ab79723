// Epoch aggregation cost: what the initiator pays per round as the cluster
// grows, flat vs hierarchical.
//
// The flat protocol (the paper's: every node sends its summary straight to
// the initiator) makes the root's per-epoch work O(N) — it absorbs N-1
// summary messages and folds each one. The aggregation tree bounds the
// root's traffic by its branching factor: interior nodes pre-merge their
// subtrees, so the root absorbs ~fanout partials per round no matter how
// many nodes sit below them. This bench prints both curves; the expected
// shape is the flat column growing linearly down the table while each tree
// column stays flat.
//
// --emit_bench_json[=path] additionally writes the whole grid as a schema-2
// "epoch_cost" doc that tools/check_bench_regression.py gates with
// --max-epoch-root-cost (applied to the tree points; flat points are
// reported but unbounded — their linear growth is the baseline the tree is
// measured against). --metrics_out=PREFIX writes each point's metrics
// registry JSON to PREFIX_n<nodes>_f<fanout>.json.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace gms;

  const auto epochs = static_cast<uint64_t>(FlagValue(argc, argv, "epochs", 3));
  const auto max_nodes =
      static_cast<uint32_t>(FlagValue(argc, argv, "max_nodes", 4000));
  std::vector<uint32_t> sizes;
  for (uint32_t n : {250u, 1000u, 2000u, 4000u, 10000u}) {
    if (n <= max_nodes) {
      sizes.push_back(n);
    }
  }
  const std::vector<uint32_t> fanouts = {0, 4, 16, 64};  // 0 = flat

  std::printf("=== Epoch cost at the root: summary msgs & CPU per round ===\n");
  std::printf("(%llu rounds per point; pass --max_nodes=10000 for the full "
              "sweep)\n\n",
              static_cast<unsigned long long>(epochs));
  std::printf("%8s | %18s | %18s | %18s | %18s\n", "nodes", "flat", "fanout 4",
              "fanout 16", "fanout 64");
  std::printf("%8s | %10s %7s | %10s %7s | %10s %7s | %10s %7s\n", "",
              "msgs/ep", "cpu us", "msgs/ep", "cpu us", "msgs/ep", "cpu us",
              "msgs/ep", "cpu us");
  const std::string metrics_prefix = FlagString(argc, argv, "metrics_out");
  std::vector<EpochScaleoutResult> grid;
  for (uint32_t n : sizes) {
    std::printf("%8u |", n);
    for (uint32_t fanout : fanouts) {
      const std::string metrics_out =
          metrics_prefix.empty()
              ? std::string()
              : metrics_prefix + "_n" + std::to_string(n) + "_f" +
                    std::to_string(fanout) + ".json";
      const EpochScaleoutResult r =
          RunEpochScaleout(n, fanout, epochs, metrics_out);
      grid.push_back(r);
      if (r.epochs == 0) {
        std::printf(" %10s %7s |", "-", "-");
        continue;
      }
      std::printf(" %10.1f %7.0f %s", r.root_summary_msgs_per_epoch,
                  r.root_epoch_cpu_us_per_epoch,
                  fanout == fanouts.back() ? "" : "|");
    }
    std::printf("\n");
  }
  std::printf(
      "\nExpected: the flat column's msgs/epoch tracks N-1; every tree\n"
      "column stays near its fanout as N grows. A flat value *below* N-1\n"
      "means the root could not even absorb every summary inside the\n"
      "straggler window — past that point the flat initiator plans from a\n"
      "partial view of the cluster, which is the scaling failure the tree\n"
      "removes (its root absorbs only ~fanout pre-merged partials).\n");

  const std::string json_out = FlagString(argc, argv, "emit_bench_json");
  if (!json_out.empty()) {
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_out.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"schema\": 2,\n  \"kind\": \"epoch_cost\",\n"
                 "  \"epochs\": %llu,\n  \"points\": [\n",
                 static_cast<unsigned long long>(epochs));
    for (size_t i = 0; i < grid.size(); i++) {
      const EpochScaleoutResult& r = grid[i];
      std::fprintf(f,
                   "    {\"nodes\": %u, \"fanout\": %u, \"epochs\": %llu,\n"
                   "     \"root_summary_msgs_per_epoch\": %.3f,\n"
                   "     \"root_epoch_cpu_us_per_epoch\": %.3f,\n"
                   "     \"sim_s\": %.3f}%s\n",
                   r.nodes, r.fanout,
                   static_cast<unsigned long long>(r.epochs),
                   r.root_summary_msgs_per_epoch,
                   r.root_epoch_cpu_us_per_epoch, r.sim_s,
                   i + 1 == grid.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("bench json -> %s\n", json_out.c_str());
  }
  return 0;
}
