// Reproduces Figure 8: k-NN queries, sensitivity to node fanout.
// Datasets as in Figure 7; k = 0.25% of the dataset (5 for 2000 trees).
//
// Paper shape: BiBranch accesses at most ~23% of what Histo accesses; the
// filter step itself is a tiny fraction of the sequential CPU (~2%).
#include <cstdio>

#include "bench_util.h"

namespace treesim {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const CommonFlags common = ParseCommonFlags(flags);
  if (!ApplyQueryLogFlags(common)) return 1;
  BenchReport report("fig08_fanout_knn");
  ReportCommonConfig(common, report);

  PrintFigureHeader("Figure 8", "k-NN queries, sensitivity to fanout",
                    "k-NN, k = 0.25% of |D|, dataset N{f,0.5}N{50,2}L8D0.05, " +
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
    config.kind = WorkloadKind::kKnn;
    config.queries = common.queries;
    config.k_fraction = 0.0025;
    const WorkloadResult r = RunWorkload(*db, config);
    PrintSweepRow("fanout", fanout, WorkloadKind::kKnn, r);
    ReportSweepPoint("fanout", fanout, WorkloadKind::kKnn, config.queries, r,
                     report);
  }
  std::printf("expected shape: BiBranch%% << Histo%% at every fanout; "
              "filter CPU is a small fraction of SeqCPU\n\n");
  return report.WriteIfRequested(common.json_path) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace treesim

int main(int argc, char** argv) { return treesim::bench::Main(argc, argv); }
