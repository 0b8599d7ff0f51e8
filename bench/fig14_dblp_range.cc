// Reproduces Figure 14: range searches on DBLP, range in {1,2,3,4,5,7,10}.
// Same substituted dataset as Figure 13.
//
// Paper shape: BiBranch clearly beats Histo while the range stays below the
// average distance (~5); the gap narrows as the range approaches 10, where
// the result set is nearly the whole dataset.
#include <cstdio>

#include "bench_util.h"
#include "datagen/dblp_generator.h"

namespace treesim {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const CommonFlags common = ParseCommonFlags(flags, 2000, 50);
  if (!ApplyQueryLogFlags(common)) return 1;
  BenchReport report("fig14_dblp_range");
  ReportCommonConfig(common, report);

  PrintFigureHeader("Figure 14", "range searches on DBLP(-like) data",
                    "range, tau in {1..10}, " + std::to_string(common.trees) +
                        " bibliographic records",
                    common.queries);
  auto labels = std::make_shared<LabelDictionary>();
  DblpGenerator gen(DblpParams{}, labels, common.seed);
  auto db = MakeDatabase(labels, gen.Generate(common.trees));

  for (const int tau : {1, 2, 3, 4, 5, 7, 10}) {
    WorkloadConfig config;
    config.kind = WorkloadKind::kRange;
    config.queries = common.queries;
    config.fixed_tau = tau;
    config.seed = 20050614 + static_cast<uint64_t>(tau);
    const WorkloadResult r = RunWorkload(*db, config);
    std::printf("tau=%-3d avgDist=%-6.2f result%%=%-8.3f BiBranch%%=%-8.3f "
                "Histo%%=%-8.3f BiBranchCPU=%-8.4fs SeqCPU=%-8.4fs\n",
                tau, r.avg_distance, r.result_pct, r.bibranch_pct,
                r.histo_pct, r.bibranch_cpu, r.sequential_cpu);
    ReportSweepPoint("tau", tau, WorkloadKind::kRange, config.queries, r,
                     report);
  }
  std::printf("expected shape: BiBranch%% < Histo%% for tau below the "
              "average distance; gap narrows as tau -> 10 (result set is "
              "nearly everything)\n\n");
  return report.WriteIfRequested(common.json_path) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace treesim

int main(int argc, char** argv) { return treesim::bench::Main(argc, argv); }
