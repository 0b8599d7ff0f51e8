// Reproduces Figure 7: range queries, sensitivity to node fanout.
// Datasets: N{f,0.5} N{50,2} L8 D0.05 with fanout mean f in {2,4,6,8},
// 2000 trees; range = 1/5 of the average pairwise distance.
//
// Paper shape: BiBranch accesses at most ~3.35% of what Histo accesses;
// both filters access the most data at fanout 2 (height variance dominates),
// and Histo improves with growing fanout while staying well above BiBranch.
#include <cstdio>

#include "bench_util.h"

namespace treesim {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const CommonFlags common = ParseCommonFlags(flags);
  if (!ApplyQueryLogFlags(common)) return 1;
  BenchReport report("fig07_fanout_range");
  ReportCommonConfig(common, report);

  PrintFigureHeader("Figure 7", "range queries, sensitivity to fanout",
                    "range, tau = avgDist/5, dataset N{f,0.5}N{50,2}L8D0.05, " +
                        std::to_string(common.trees) + " trees",
                    common.queries);
  for (const double fanout : {2.0, 4.0, 6.0, 8.0}) {
    auto labels = std::make_shared<LabelDictionary>();
    SyntheticParams params;
    params.fanout_mean = fanout;
    params.fanout_stddev = 0.5;
    params.size_mean = 50;
    params.size_stddev = 2;
    params.label_count = 8;
    params.decay = 0.05;
    SyntheticGenerator gen(params, labels, common.seed);
    auto db = MakeDatabase(labels, gen.GenerateDataset(common.trees));

    WorkloadConfig config;
    config.kind = WorkloadKind::kRange;
    config.queries = common.queries;
    config.tau_fraction = 0.2;
    const WorkloadResult r = RunWorkload(*db, config);
    PrintSweepRow("fanout", fanout, WorkloadKind::kRange, r);
    ReportSweepPoint("fanout", fanout, WorkloadKind::kRange, config.queries,
                     r, report);
  }
  std::printf("expected shape: BiBranch%% << Histo%%, both peak at fanout 2; "
              "BiBranchCPU << SeqCPU\n\n");
  return report.WriteIfRequested(common.json_path) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace treesim

int main(int argc, char** argv) { return treesim::bench::Main(argc, argv); }
