// Reproduces Figure 9: range queries, sensitivity to tree size.
// Datasets: N{4,0.5} N{s,2} L8 D0.05 with size mean s in {25,50,75,125},
// 2000 trees; range = 1/5 of the average pairwise distance.
//
// Paper shape: BiBranch%% stays near the result size across all sizes while
// Histo%% is far larger (up to 70x at size 125); sequential CPU grows
// quadratically with tree size, so the filter's advantage widens.
#include <cstdio>

#include "bench_util.h"

namespace treesim {
namespace bench {
namespace {

// Exact-distance cost grows ~quadratically with tree size; scale the default
// query count down so the whole suite stays interactive.
int DefaultQueries(int size_mean) {
  if (size_mean <= 25) return 10;
  if (size_mean <= 50) return 8;
  if (size_mean <= 75) return 5;
  return 3;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  // -1 = per-size default (DefaultQueries above).
  const CommonFlags common = ParseCommonFlags(flags, 2000, -1);
  if (!ApplyQueryLogFlags(common)) return 1;
  BenchReport report("fig09_size_range");
  ReportCommonConfig(common, report);

  PrintFigureHeader(
      "Figure 9", "range queries, sensitivity to tree size",
      "range, tau = avgDist/5, dataset N{4,0.5}N{s,2}L8D0.05, " +
          std::to_string(common.trees) + " trees",
      common.queries);
  for (const int size : {25, 50, 75, 125}) {
    auto labels = std::make_shared<LabelDictionary>();
    SyntheticParams params;
    params.fanout_mean = 4;
    params.fanout_stddev = 0.5;
    params.size_mean = size;
    params.size_stddev = 2;
    params.label_count = 8;
    params.decay = 0.05;
    SyntheticGenerator gen(params, labels, common.seed);
    auto db = MakeDatabase(labels, gen.GenerateDataset(common.trees));

    WorkloadConfig config;
    config.kind = WorkloadKind::kRange;
    config.queries =
        common.queries > 0 ? common.queries : DefaultQueries(size);
    config.tau_fraction = 0.2;
    const WorkloadResult r = RunWorkload(*db, config);
    PrintSweepRow("size", size, WorkloadKind::kRange, r);
    ReportSweepPoint("size", size, WorkloadKind::kRange, config.queries, r,
                     report);
  }
  std::printf("expected shape: BiBranch%% ~= result%% for every size; "
              "Histo%%/BiBranch%% grows with size (up to ~70x at 125); "
              "SeqCPU grows quadratically\n\n");
  return report.WriteIfRequested(common.json_path) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace treesim

int main(int argc, char** argv) { return treesim::bench::Main(argc, argv); }
