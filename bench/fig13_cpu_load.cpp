// Figure 13: CPU impact on the idle node serving 1-7 OO7 clients.
//
// For the Figure 12 experiment, reports the provider's CPU utilization and
// its page-transfer (getpage served + putpage absorbed) rate. The paper: at
// seven clients the idle node serves ~2880 ops/s costing ~56% of its CPU
// (~194 us per operation).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/cluster/sweep.h"
#include "src/common/table.h"

int main(int argc, char** argv) {
  using namespace gms;
  const PaperScale s = BenchScale(argc, argv);
  BenchHeader("Figure 13: CPU load on the single idle node", s);

  TablePrinter table({"Clients", "Idle-node CPU %", "Page-transfer ops/s",
                      "us per op"});
  // Each client count is an independent universe: sweep them in parallel.
  auto runs = RunSweepParallel(7, SweepThreads(argc, argv), [&s](size_t i) {
    return RunSingleIdleProvider(static_cast<uint32_t>(i + 1),
                                 PolicyKind::kGms, s);
  });
  for (uint32_t clients = 1; clients <= 7; clients++) {
    const SingleIdleResult& r = runs[clients - 1];
    const double us_per_op = r.idle_ops_per_sec > 0
                                 ? r.idle_cpu_utilization * 1e6 / r.idle_ops_per_sec
                                 : 0;
    table.AddNumericRow(std::to_string(clients),
                        {r.idle_cpu_utilization * 100.0, r.idle_ops_per_sec,
                         us_per_op},
                        1);
  }
  table.Print(std::cout);
  std::printf("\nPaper: ~2880 ops/s and ~56%% CPU at seven clients\n"
              "(~194 us per page-transfer operation).\n");
  return 0;
}
