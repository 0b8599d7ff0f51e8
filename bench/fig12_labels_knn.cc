// Reproduces Figure 12: k-NN queries, sensitivity to the number of labels.
// Datasets as in Figure 11; k = 0.25% of the dataset.
#include <cstdio>

#include "bench_util.h"

namespace treesim {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const CommonFlags common = ParseCommonFlags(flags, 2000, 8);
  if (!ApplyQueryLogFlags(common)) return 1;
  BenchReport report("fig12_labels_knn");
  ReportCommonConfig(common, report);

  PrintFigureHeader("Figure 12", "k-NN queries, sensitivity to label count",
                    "k-NN, k = 0.25% of |D|, dataset N{4,0.5}N{50,2}L{y}D0.05, " +
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
    config.kind = WorkloadKind::kKnn;
    config.queries = common.queries;
    config.k_fraction = 0.0025;
    const WorkloadResult r = RunWorkload(*db, config);
    PrintSweepRow("labels", label_count, WorkloadKind::kKnn, r);
    ReportSweepPoint("labels", label_count, WorkloadKind::kKnn,
                     config.queries, r, report);
  }
  std::printf("expected shape: BiBranch%% << Histo%% at every label count\n\n");
  return report.WriteIfRequested(common.json_path) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace treesim

int main(int argc, char** argv) { return treesim::bench::Main(argc, argv); }
