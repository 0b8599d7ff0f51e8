// Reproduces Figure 10: k-NN queries, sensitivity to tree size.
// Datasets as in Figure 9; k = 0.25% of the dataset.
//
// Paper shape: mirrors Figure 9 — BiBranch access stays low across sizes,
// Histo needs much more, and the sequential scan cost explodes with size.
#include <cstdio>

#include "bench_util.h"

namespace treesim {
namespace bench {
namespace {

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
  BenchReport report("fig10_size_knn");
  ReportCommonConfig(common, report);

  PrintFigureHeader("Figure 10", "k-NN queries, sensitivity to tree size",
                    "k-NN, k = 0.25% of |D|, dataset N{4,0.5}N{s,2}L8D0.05, " +
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
    config.kind = WorkloadKind::kKnn;
    config.queries =
        common.queries > 0 ? common.queries : DefaultQueries(size);
    config.k_fraction = 0.0025;
    const WorkloadResult r = RunWorkload(*db, config);
    PrintSweepRow("size", size, WorkloadKind::kKnn, r);
    ReportSweepPoint("size", size, WorkloadKind::kKnn, config.queries, r,
                     report);
  }
  std::printf("expected shape: BiBranch%% << Histo%% for every size; "
              "SeqCPU grows quadratically with tree size\n\n");
  return report.WriteIfRequested(common.json_path) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace treesim

int main(int argc, char** argv) { return treesim::bench::Main(argc, argv); }
