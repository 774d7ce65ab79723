// Figure 12: benchmark speedup when a single idle node serves the remote
// memory of 1-7 client nodes all running OO7.
//
// The paper: average speedup is only moderately lowered as clients share one
// global-memory provider (from ~2.5 down to ~2.2 at seven clients).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/table.h"

int main(int argc, char** argv) {
  using namespace gms;
  PaperScale s = BenchScale(argc, argv);
  BenchHeader("Figure 12: OO7 speedup vs clients sharing one idle node", s);

  // Baseline: a single client with no cluster memory.
  const SingleIdleResult base =
      RunSingleIdleProvider(1, PolicyKind::kLocalLru, s);

  TablePrinter table({"Clients", "Mean OO7 speedup"});
  for (uint32_t clients = 1; clients <= 7; clients++) {
    const SingleIdleResult r = RunSingleIdleProvider(clients, PolicyKind::kGms, s);
    const double speedup =
        r.mean_client_elapsed > 0
            ? static_cast<double>(base.mean_client_elapsed) /
                  static_cast<double>(r.mean_client_elapsed)
            : 0;
    table.AddNumericRow(std::to_string(clients), {speedup}, 2);
    std::fflush(stdout);
  }
  table.Print(std::cout);
  std::printf("\nPaper: speedup only moderately lowered as seven OO7 clients\n"
              "share a single provider (~2.5 -> ~2.2).\n");
  return 0;
}
