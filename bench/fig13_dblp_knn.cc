// Reproduces Figure 13: k-NN searches on DBLP, k in {5,7,10,12,15,17,20}.
// The paper samples 2000 records from the real DBLP (avg size 10.15, avg
// depth 2.902, avg pairwise distance 5.031) and 100 queries from that set;
// we substitute the calibrated DBLP-like generator (see DESIGN.md) and print
// the realized statistics alongside.
//
// Paper shape: BiBranch accesses 1-3x less data than Histo; BiBranch search
// time is about 1/6 of the sequential scan.
#include <cstdio>

#include "bench_util.h"
#include "datagen/dblp_generator.h"
#include "tree/traversal.h"

namespace treesim {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const CommonFlags common = ParseCommonFlags(flags, 2000, 50);
  if (!ApplyQueryLogFlags(common)) return 1;
  BenchReport report("fig13_dblp_knn");
  ReportCommonConfig(common, report);

  PrintFigureHeader("Figure 13", "k-NN searches on DBLP(-like) data",
                    "k-NN, k in {5..20}, " + std::to_string(common.trees) +
                        " bibliographic records",
                    common.queries);
  auto labels = std::make_shared<LabelDictionary>();
  DblpGenerator gen(DblpParams{}, labels, common.seed);
  auto db = MakeDatabase(labels, gen.Generate(common.trees));

  double depth_total = 0;
  for (int i = 0; i < db->size(); ++i) {
    depth_total += TreeHeight(db->tree(i));
  }
  std::printf("realized: avg size %.2f (paper 10.15), avg depth %.3f "
              "(paper 2.902)\n",
              db->AverageTreeSize(), depth_total / db->size());

  for (const int k : {5, 7, 10, 12, 15, 17, 20}) {
    WorkloadConfig config;
    config.kind = WorkloadKind::kKnn;
    config.queries = common.queries;
    config.fixed_k = k;
    config.seed = 20050614 + static_cast<uint64_t>(k);
    const WorkloadResult r = RunWorkload(*db, config);
    std::printf("k=%-3d avgDist=%-6.2f result%%=%-7.3f BiBranch%%=%-8.3f "
                "Histo%%=%-8.3f BiBranchCPU=%-8.4fs SeqCPU=%-8.4fs\n",
                k, r.avg_distance, r.result_pct, r.bibranch_pct, r.histo_pct,
                r.bibranch_cpu, r.sequential_cpu);
    ReportSweepPoint("k", k, WorkloadKind::kKnn, config.queries, r, report);
  }
  std::printf("expected shape: BiBranch%% 1-3x below Histo%%; BiBranchCPU "
              "around 1/6 of SeqCPU\n\n");
  return report.WriteIfRequested(common.json_path) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace treesim

int main(int argc, char** argv) { return treesim::bench::Main(argc, argv); }
