// Policy tournament: every registered replacement policy against every
// workload scenario, one league table to compare them.
//
// Each cell of the (policy x scenario) matrix runs the identical cluster,
// seed, and reference stream under a different replacement policy and
// reports completion time, where faults were served, and network spend. A
// policy's score in a scenario is best_elapsed / elapsed (1.0 = fastest,
// smaller = slower); the league ranks policies by mean score across the
// scenarios they played, with outright wins as the tiebreaker color.
//
// The scenario set deliberately spans regimes with different best experts:
//   zipf          skewed reuse over an overflowing footprint (LFU-friendly)
//   scan          cyclic sequential sweep bigger than local memory
//   phase_change  hot working set alternating with oversized one-pass scans
//                 (the adversarial case for any fixed heuristic: the right
//                 forwarding rule flips between phases)
//   oo7           the paper's OO7 database traversal on the skewed-idle
//                 cluster of fig9 (2 of 6 peers hold the idle memory)
//   webquery      the paper's web query server, same skewed cluster
//   skewed_idle   uniform random overflow against the same skew
//   chaos_loss    the standard chaos scenario (fault injection, 5% loss,
//                 mid-run partition) from src/cluster/chaos_scenario.h
//
// For ensemble cells the harness also extracts the learner's telemetry
// (references, cumulative expected loss, best/worst expert loss, the Hedge
// regret bound) and checks expected_loss <= bound — the tournament doubles
// as an end-to-end regret audit on real protocol-driven fault streams.
//
// Every cell is an independent universe, so the grid runs on the sweep pool
// (RunSweepParallel, src/cluster/sweep.h): --threads=N sizes it (default:
// hardware concurrency), one serial cluster per pool thread. Cells come back
// in grid order, so stdout and the JSON doc are identical at any --threads.
//
// Flags: --policies=a,b,c --scenarios=x,y --scale= --seed= --threads=
//        --json_out=FILE (schema-2 "policy_tournament" doc for
//        tools/check_tournament.py and tools/check_bench_regression.py)
//        --metrics_out=PREFIX (per-cell metrics registry JSON with snapshot
//        series, PREFIX_<scenario>_<policy>.json).
// --policies=list prints the registry and exits.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/chaos_scenario.h"
#include "src/cluster/cluster.h"
#include "src/cluster/sweep.h"
#include "src/core/directory.h"
#include "src/core/ensemble_policy.h"
#include "src/workload/applications.h"
#include "src/workload/patterns.h"

namespace gms {
namespace {

struct RegretAudit {
  std::string scenario;
  unsigned long long references = 0;
  double expected_loss = 0;
  double best_expert_loss = 0;
  double worst_expert_loss = 0;
  double bound = 0;
  bool ok = false;
};

struct Cell {
  std::string scenario;
  std::string policy;
  bool completed = false;
  double elapsed_s = 0;
  unsigned long long cluster_hits = 0;
  unsigned long long disk_reads = 0;
  double network_mb = 0;
  double score = 0;  // best_elapsed / elapsed within the scenario
  std::optional<RegretAudit> audit;  // ensemble cells only
};

// A scenario builds a started cluster with its workloads added (not yet
// started); the harness runs and measures them uniformly.
struct Scenario {
  const char* name;
  const char* blurb;
  std::function<std::unique_ptr<Cluster>(PolicyKind, const PaperScale&)> build;
};

// File pages backed by node 0's local disk: a miss that cluster memory
// cannot serve is a real disk read, so the elapsed column prices each
// policy's forwarding decisions. (Read-only *anonymous* pages would be
// zero-filled for free on every re-fault, making "drop everything" unbeatable
// by construction.)
Uid Page(uint64_t inode, uint32_t page) {
  return MakeFileUid(NodeId{0}, inode, page);
}

// --metrics_out=PREFIX: each cell's metrics registry (with a snapshot
// series) lands in PREFIX_<scenario>_<policy>.json. Routed through file
// scope because Scenario::build's signature is (policy, scale); both are set
// once in main() before the grid runs and only read by the cells.
ObsConfig g_obs;
std::string g_metrics_prefix;

// Operation counts scale linearly with --scale (default 0.25 keeps the whole
// tournament to seconds); footprints stay fixed so every memory-pressure
// ratio against the frame counts is preserved at any scale.
uint64_t Ops(const PaperScale& s, uint64_t base_at_quarter) {
  const double scaled = static_cast<double>(base_at_quarter) * s.scale / 0.25;
  return std::max<uint64_t>(static_cast<uint64_t>(scaled), 256);
}

std::unique_ptr<Cluster> MakeCluster(PolicyKind policy, const PaperScale& s,
                                     std::vector<uint32_t> frames) {
  ClusterConfig config;
  config.num_nodes = static_cast<uint32_t>(frames.size());
  config.policy = policy;
  config.frames = frames[0];
  config.frames_per_node = std::move(frames);
  config.seed = s.seed;
  config.far = s.far;
  config.obs = g_obs;
  auto cluster = std::make_unique<Cluster>(config);
  cluster->Start();
  return cluster;
}

// The standard overflow shape: one busy node whose footprint spills into
// three uniform idle donors. Local 512 frames, cluster 3584.
std::unique_ptr<Cluster> OverflowCluster(PolicyKind policy,
                                         const PaperScale& s) {
  return MakeCluster(policy, s, {512, 1024, 1024, 1024});
}

// fig9's skew: 2 of 6 peers hold nearly all the idle memory — the hard case
// for random forwarding. Same shape as examples/policy_comparison.
std::unique_ptr<Cluster> SkewedCluster(PolicyKind policy,
                                       const PaperScale& s) {
  return MakeCluster(policy, s, {2048, 2300, 2300, 80, 80, 80, 80});
}

constexpr SimTime kComputePerOp = Microseconds(30);

std::vector<Scenario> AllScenarios() {
  std::vector<Scenario> scenarios;

  scenarios.push_back(
      {"zipf", "zipf(0.8) reuse over 3x local memory",
       [](PolicyKind policy, const PaperScale& s) {
         auto cluster = OverflowCluster(policy, s);
         cluster->AddWorkload(
             NodeId{0},
             std::make_unique<ZipfPattern>(PageSet{Page(1, 0), 1536},
                                           Ops(s, 16000), kComputePerOp, 0.8),
             "zipf");
         return cluster;
       }});

  scenarios.push_back(
      {"scan", "cyclic sequential sweep, 3x local memory",
       [](PolicyKind policy, const PaperScale& s) {
         auto cluster = OverflowCluster(policy, s);
         cluster->AddWorkload(NodeId{0},
                              std::make_unique<SequentialPattern>(
                                  PageSet{Page(1, 0), 1536}, Ops(s, 12000),
                                  kComputePerOp, 0.0),
                              "scan");
         return cluster;
       }});

  scenarios.push_back(
      {"phase_change", "hot set alternating with oversized one-pass scans",
       [](PolicyKind policy, const PaperScale& s) {
         auto cluster = OverflowCluster(policy, s);
         // Hot phases reuse a working set that overflows local memory but
         // fits comfortably in the donors; scan phases sweep once through a
         // region bigger than the whole cluster. A fixed always-forward rule
         // floods the donors with dead scan pages (young ages displace the
         // idle hot set); a fixed never-forward rule pays disk for the hot
         // set every phase. The right rule flips with the phase.
         std::vector<std::unique_ptr<AccessPattern>> phases;
         for (int round = 0; round < 3; round++) {
           phases.push_back(std::make_unique<UniformRandomPattern>(
               PageSet{Page(1, 0), 1280}, Ops(s, 6000), kComputePerOp, 0.0));
           if (round < 2) {
             phases.push_back(std::make_unique<SequentialPattern>(
                 PageSet{Page(2, 0), 6144}, Ops(s, 6144), kComputePerOp,
                 0.0));
           }
         }
         cluster->AddWorkload(NodeId{0},
                              std::make_unique<ChainPattern>(std::move(phases)),
                              "phase_change");
         return cluster;
       }});

  scenarios.push_back({"oo7", "paper OO7 traversal on the fig9 skew",
                       [](PolicyKind policy, const PaperScale& s) {
                         auto cluster = SkewedCluster(policy, s);
                         AppSpec app = MakeOO7(NodeId{0}, s.scale);
                         cluster->AddWorkload(NodeId{0},
                                              std::move(app.pattern), app.name);
                         return cluster;
                       }});

  scenarios.push_back({"webquery", "paper web query server on the fig9 skew",
                       [](PolicyKind policy, const PaperScale& s) {
                         auto cluster = SkewedCluster(policy, s);
                         AppSpec app = MakeWebQueryServer(NodeId{0}, s.scale);
                         cluster->AddWorkload(NodeId{0},
                                              std::move(app.pattern), app.name);
                         return cluster;
                       }});

  scenarios.push_back(
      {"skewed_idle", "uniform random overflow against the fig9 skew",
       [](PolicyKind policy, const PaperScale& s) {
         auto cluster = SkewedCluster(policy, s);
         cluster->AddWorkload(
             NodeId{0},
             std::make_unique<UniformRandomPattern>(PageSet{Page(1, 0), 3072},
                                                    Ops(s, 12000),
                                                    kComputePerOp, 0.0),
             "skewed_idle");
         return cluster;
       }});

  scenarios.push_back(
      {"chaos_loss", "standard chaos scenario: 5% loss + mid-run partition",
       [](PolicyKind policy, const PaperScale& s) {
         ChaosCase chaos;
         chaos.seed = s.seed;
         chaos.loss = 0.05;
         chaos.policy = policy;
         // Adds its own two workloads.
         return BuildChaosCluster(chaos, /*with_partition=*/true, g_obs);
       }});

  return scenarios;
}

Cell RunCell(const Scenario& scenario, PolicyKind policy, const PaperScale& s) {
  std::unique_ptr<Cluster> cluster = scenario.build(policy, s);
  cluster->StartWorkloads();
  Cell cell;
  cell.scenario = scenario.name;
  cell.policy = PolicyName(policy);
  cell.completed = cluster->RunUntilWorkloadsDone(Seconds(7200));
  double elapsed = 0;
  for (const auto& w : cluster->workloads()) {
    elapsed = std::max(elapsed, ToSeconds(w->elapsed()));
  }
  cell.elapsed_s = elapsed;
  const Cluster::Totals t = cluster->totals();
  cell.cluster_hits = t.getpage_hits;
  cell.disk_reads = t.disk_reads;
  cell.network_mb = static_cast<double>(t.net_bytes) / (1 << 20);

  if (policy == PolicyKind::kEnsemble) {
    // The busy node's learner; every scenario drives node 0.
    if (auto* learner = dynamic_cast<EnsemblePolicy*>(
            cluster->service(NodeId{0}).policy())) {
      RegretAudit audit;
      audit.scenario = scenario.name;
      audit.references = learner->references();
      audit.expected_loss = learner->expected_loss();
      audit.best_expert_loss =
          static_cast<double>(learner->best_expert_loss());
      audit.worst_expert_loss = static_cast<double>(*std::max_element(
          learner->expert_losses().begin(), learner->expert_losses().end()));
      audit.bound = learner->RegretBound();
      audit.ok = audit.expected_loss <= audit.bound + 1e-6;
      cell.audit = audit;
    }
  }

  if (!g_metrics_prefix.empty()) {
    const std::string path =
        g_metrics_prefix + "_" + cell.scenario + "_" + cell.policy + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      const std::string json = cluster->metrics().ToJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
    }
  }
  return cell;
}

std::vector<std::string> SplitList(const std::string& csv) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= csv.size()) {
    const size_t comma = csv.find(',', start);
    const size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) {
      out.push_back(csv.substr(start, end - start));
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return out;
}

}  // namespace
}  // namespace gms

int main(int argc, char** argv) {
  using namespace gms;
  const PaperScale s = BenchScale(argc, argv);

  g_metrics_prefix = FlagString(argc, argv, "metrics_out");
  if (!g_metrics_prefix.empty()) {
    g_obs.snapshot_interval = Milliseconds(250);
  }

  // --policies=: comma list through the registry; default = every policy.
  std::vector<PolicyKind> policies;
  const std::string policies_flag = FlagString(argc, argv, "policies");
  if (policies_flag.empty()) {
    policies = {PolicyKind::kLocalLru, PolicyKind::kNchance, PolicyKind::kGms,
                PolicyKind::kEnsemble};
  } else {
    for (const std::string& name : SplitList(policies_flag)) {
      policies.push_back(PolicyFlagOrDie("policies", name));
    }
  }

  // --scenarios=: comma list by name; default = every scenario.
  std::vector<Scenario> scenarios;
  const std::string scenarios_flag = FlagString(argc, argv, "scenarios");
  for (Scenario& scenario : AllScenarios()) {
    bool wanted = scenarios_flag.empty();
    for (const std::string& name : SplitList(scenarios_flag)) {
      wanted = wanted || name == scenario.name;
    }
    if (wanted) {
      scenarios.push_back(std::move(scenario));
    }
  }
  if (scenarios.empty()) {
    std::fprintf(stderr, "no scenario matched --scenarios=%s\n",
                 scenarios_flag.c_str());
    return 1;
  }

  BenchHeader("Policy tournament: every policy x every scenario", s);

  std::printf("%-14s", "scenario");
  for (const PolicyKind policy : policies) {
    std::printf(" %10s", PolicyName(policy));
  }
  std::printf("   (elapsed seconds; * = scenario winner)\n");
  std::fflush(stdout);
  // Cell i = (scenario i / P, policy i % P): row-major, one row per scenario.
  const size_t num_policies = policies.size();
  std::vector<Cell> cells = RunSweepParallel(
      scenarios.size() * num_policies, SweepThreads(argc, argv),
      [&](size_t i) {
        return RunCell(scenarios[i / num_policies], policies[i % num_policies],
                       s);
      });
  std::vector<RegretAudit> audits;
  for (size_t r = 0; r < scenarios.size(); r++) {
    const std::span<Cell> row(cells.data() + r * num_policies, num_policies);
    double best = 0;
    for (const Cell& cell : row) {
      if (cell.elapsed_s > 0 && (best == 0 || cell.elapsed_s < best)) {
        best = cell.elapsed_s;
      }
    }
    std::printf("%-14s", scenarios[r].name);
    for (Cell& cell : row) {
      cell.score = cell.elapsed_s > 0 ? best / cell.elapsed_s : 0;
      std::printf(" %9.1f%s", cell.elapsed_s,
                  cell.elapsed_s == best ? "*" : " ");
      if (cell.audit) {
        audits.push_back(*cell.audit);
      }
    }
    std::printf("  %s\n", scenarios[r].blurb);
  }

  // League: mean score across scenarios, outright wins as the color.
  struct Standing {
    std::string policy;
    double mean_score = 0;
    int wins = 0;
  };
  std::vector<Standing> league;
  for (const PolicyKind policy : policies) {
    Standing st;
    st.policy = PolicyName(policy);
    double sum = 0;
    int n = 0;
    for (const Cell& cell : cells) {
      if (cell.policy != st.policy) {
        continue;
      }
      sum += cell.score;
      n++;
      if (cell.score >= 1.0 - 1e-12) {
        st.wins++;
      }
    }
    st.mean_score = n > 0 ? sum / n : 0;
    league.push_back(st);
  }
  std::sort(league.begin(), league.end(),
            [](const Standing& a, const Standing& b) {
              if (a.mean_score != b.mean_score) {
                return a.mean_score > b.mean_score;
              }
              if (a.wins != b.wins) {
                return a.wins > b.wins;
              }
              return a.policy < b.policy;
            });
  std::printf("\n=== League (mean of per-scenario best/elapsed; 1.0 = never "
              "beaten) ===\n");
  std::printf("%4s %-10s %10s %6s\n", "", "policy", "mean", "wins");
  for (size_t i = 0; i < league.size(); i++) {
    std::printf("%3zu. %-10s %10.3f %6d\n", i + 1, league[i].policy.c_str(),
                league[i].mean_score, league[i].wins);
  }

  if (!audits.empty()) {
    std::printf("\n=== Ensemble regret audit (expected loss vs Hedge bound) "
                "===\n");
    std::printf("%-14s %10s %14s %10s %10s %10s %5s\n", "scenario", "refs",
                "exp. loss", "best", "worst", "bound", "ok");
    for (const RegretAudit& a : audits) {
      std::printf("%-14s %10llu %14.1f %10.0f %10.0f %10.1f %5s\n",
                  a.scenario.c_str(), a.references, a.expected_loss,
                  a.best_expert_loss, a.worst_expert_loss, a.bound,
                  a.ok ? "yes" : "NO");
    }
  }

  const std::string json_out = FlagString(argc, argv, "json_out");
  if (!json_out.empty()) {
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_out.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"schema\": 2,\n  \"kind\": \"policy_tournament\",\n"
                 "  \"scale\": %.6g,\n  \"seed\": %llu,\n",
                 s.scale, static_cast<unsigned long long>(s.seed));
    std::fprintf(f, "  \"policies\": [");
    for (size_t i = 0; i < policies.size(); i++) {
      std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ",
                   PolicyName(policies[i]));
    }
    std::fprintf(f, "],\n  \"scenarios\": [");
    for (size_t i = 0; i < scenarios.size(); i++) {
      std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", scenarios[i].name);
    }
    std::fprintf(f, "],\n  \"cells\": [\n");
    for (size_t i = 0; i < cells.size(); i++) {
      const Cell& c = cells[i];
      std::fprintf(f,
                   "    {\"scenario\": \"%s\", \"policy\": \"%s\", "
                   "\"completed\": %s,\n"
                   "     \"elapsed_s\": %.6f, \"cluster_hits\": %llu, "
                   "\"disk_reads\": %llu,\n"
                   "     \"network_mb\": %.3f, \"score\": %.6f}%s\n",
                   c.scenario.c_str(), c.policy.c_str(),
                   c.completed ? "true" : "false", c.elapsed_s, c.cluster_hits,
                   c.disk_reads, c.network_mb, c.score,
                   i + 1 == cells.size() ? "" : ",");
    }
    std::fprintf(f, "  ],\n  \"league\": [\n");
    for (size_t i = 0; i < league.size(); i++) {
      std::fprintf(f,
                   "    {\"policy\": \"%s\", \"mean_score\": %.6f, "
                   "\"wins\": %d}%s\n",
                   league[i].policy.c_str(), league[i].mean_score,
                   league[i].wins, i + 1 == league.size() ? "" : ",");
    }
    std::fprintf(f, "  ],\n  \"ensemble_regret\": [\n");
    for (size_t i = 0; i < audits.size(); i++) {
      const RegretAudit& a = audits[i];
      std::fprintf(f,
                   "    {\"scenario\": \"%s\", \"references\": %llu,\n"
                   "     \"expected_loss\": %.6f, \"best_expert_loss\": %.1f,\n"
                   "     \"worst_expert_loss\": %.1f, \"bound\": %.6f, "
                   "\"ok\": %s}%s\n",
                   a.scenario.c_str(), a.references, a.expected_loss,
                   a.best_expert_loss, a.worst_expert_loss, a.bound,
                   a.ok ? "true" : "false", i + 1 == audits.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\ntournament json -> %s\n", json_out.c_str());
  }

  for (const RegretAudit& a : audits) {
    if (!a.ok) {
      std::fprintf(stderr, "REGRET BOUND VIOLATED in scenario %s\n",
                   a.scenario.c_str());
      return 1;
    }
  }
  return 0;
}
