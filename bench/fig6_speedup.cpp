// Figure 6: workload speedup with GMS as a function of idle network memory.
//
// The paper's setup: one active workstation (64 MB) runs each application in
// turn; eight peers house an equally-divided amount of idle memory, swept
// from 0 to 250 MB. Speedup is elapsed time relative to a native (no cluster
// memory) run. Expected shape: ~1.0 at zero idle memory, rising to a 1.5-3.5
// plateau by ~200 MB, with Boeing CAD highest and Compile&Link lowest.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/table.h"

int main(int argc, char** argv) {
  using namespace gms;
  PaperScale s = BenchScale(argc, argv);
  BenchHeader("Figure 6: workload speedup vs idle network memory", s);

  const AppKind apps[] = {AppKind::kBoeingCad,      AppKind::kVlsiRouter,
                          AppKind::kCompileAndLink, AppKind::kOO7,
                          AppKind::kRender,         AppKind::kWebQuery};
  const double idle_mb[] = {0, 50, 100, 150, 200, 250};

  TablePrinter table({"Workload", "0MB", "50MB", "100MB", "150MB", "200MB",
                      "250MB"});
  for (AppKind app : apps) {
    const AppRunResult base = RunAppAlone(app, PolicyKind::kLocalLru, 0, 8, s);
    if (!base.completed) {
      std::printf("WARNING: %s baseline did not complete\n", AppName(app));
    }
    std::vector<double> speedups;
    for (double mb : idle_mb) {
      const AppRunResult r = RunAppAlone(app, PolicyKind::kGms, mb, 8, s);
      speedups.push_back(r.elapsed > 0 ? static_cast<double>(base.elapsed) /
                                             static_cast<double>(r.elapsed)
                                       : 0.0);
    }
    table.AddNumericRow(AppName(app), speedups, 2);
    std::fflush(stdout);
  }
  table.Print(std::cout);
  std::printf("\nPaper: speedups rise from ~1.0 at zero idle memory to a\n"
              "1.5-3.5 plateau by ~200 MB (CAD/VLSI/OO7 near the top,\n"
              "Compile&Link lowest).\n");
  return 0;
}
