// Reproduces Figure 11: range queries, sensitivity to the number of labels.
// Datasets: N{4,0.5} N{50,2} L{y} D0.05 with y in {8,16,32,64}, 2000 trees.
//
// Paper shape: BiBranch always wins (by >20x at 8 labels); Histo improves as
// labels grow to 32 (label histogram gains power), then degrades again at 64
// because distances grow while its vector budget stays fixed.
#include <cstdio>

#include "bench_util.h"

namespace treesim {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const CommonFlags common = ParseCommonFlags(flags, 2000, 8);
  if (!ApplyQueryLogFlags(common)) return 1;
  BenchReport report("fig11_labels_range");
  ReportCommonConfig(common, report);

  PrintFigureHeader("Figure 11", "range queries, sensitivity to label count",
                    "range, tau = avgDist/5, dataset N{4,0.5}N{50,2}L{y}D0.05, " +
                        std::to_string(common.trees) + " trees",
                    common.queries);
  for (const int label_count : {8, 16, 32, 64}) {
    auto labels = std::make_shared<LabelDictionary>();
    SyntheticParams params;
    params.fanout_mean = 4;
    params.fanout_stddev = 0.5;
    params.size_mean = 50;
    params.size_stddev = 2;
    params.label_count = label_count;
    params.decay = 0.05;
    SyntheticGenerator gen(params, labels, common.seed);
    auto db = MakeDatabase(labels, gen.GenerateDataset(common.trees));

    WorkloadConfig config;
    config.kind = WorkloadKind::kRange;
    config.queries = common.queries;
    config.tau_fraction = 0.2;
    const WorkloadResult r = RunWorkload(*db, config);
    PrintSweepRow("labels", label_count, WorkloadKind::kRange, r);
    ReportSweepPoint("labels", label_count, WorkloadKind::kRange,
                     config.queries, r, report);
  }
  std::printf("expected shape: BiBranch%% << Histo%% everywhere; Histo "
              "narrows the gap as labels grow\n\n");
  return report.WriteIfRequested(common.json_path) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace treesim

int main(int argc, char** argv) { return treesim::bench::Main(argc, argv); }
