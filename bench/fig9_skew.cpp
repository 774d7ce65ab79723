// Figure 9: effect of idle-memory skew on OO7 speedup, GMS vs N-chance.
//
// X% of the eight peers hold (100-X)% of the cluster's idle memory. GMS is
// run with exactly the idle memory OO7 needs; N-chance with 1x, 1.5x, and 2x
// that amount. The paper: GMS is nearly flat across skews, while N-chance
// degrades badly under skew even with twice the idle memory, because its
// random targeting cannot find the lightly-loaded nodes.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/table.h"

int main(int argc, char** argv) {
  using namespace gms;
  PaperScale s = BenchScale(argc, argv);
  BenchHeader("Figure 9: OO7 speedup vs idleness skew (GMS vs N-chance)", s);

  // No-GMS baseline (skew and idle amount are irrelevant without a policy).
  const SkewResult base = RunSkewExperiment(PolicyKind::kLocalLru, 0.5, 1.0,
                                            /*collateral=*/false, s);

  const double skews[] = {0.25, 0.375, 0.5};
  TablePrinter table({"Skew (X% hold 100-X%)", "N-chance 1x", "N-chance 1.5x",
                      "N-chance 2x", "GMS 1x"});
  for (double skew : skews) {
    std::vector<double> row;
    for (double factor : {1.0, 1.5, 2.0}) {
      const SkewResult r = RunSkewExperiment(PolicyKind::kNchance, skew,
                                             factor, /*collateral=*/false, s);
      row.push_back(r.oo7_elapsed > 0 ? static_cast<double>(base.oo7_elapsed) /
                                            static_cast<double>(r.oo7_elapsed)
                                      : 0);
    }
    const SkewResult g = RunSkewExperiment(PolicyKind::kGms, skew, 1.0,
                                           /*collateral=*/false, s);
    row.push_back(g.oo7_elapsed > 0 ? static_cast<double>(base.oo7_elapsed) /
                                          static_cast<double>(g.oo7_elapsed)
                                    : 0);
    char label[32];
    std::snprintf(label, sizeof(label), "%.1f%%", skew * 100);
    table.AddNumericRow(label, row, 2);
    std::fflush(stdout);
  }
  table.Print(std::cout);
  std::printf("\nPaper: GMS ~2.5-2.9 at every skew with 1x idle memory;\n"
              "N-chance needs 2x idle memory to match GMS at 37.5%% skew and\n"
              "never matches it at 25%% skew.\n");
  return 0;
}
