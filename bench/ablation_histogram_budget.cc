// Ablation: the histogram baseline's space budget. The paper gives the
// Kailing et al. filter the same per-tree footprint as the binary branch
// representation ("the sum of dimension of the three type histogram vectors
// ... the averaged vector size plus two averaged tree size"); on label-rich
// data the label histogram then has to fold many labels per bucket and
// loses power. This bench sweeps the bucket budget on the DBLP-like data to
// show how sensitive the baseline is — and that the BiBranch filter beats
// it at the equal-space point used in the figure benches.
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "datagen/dblp_generator.h"

namespace treesim {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const CommonFlags common = ParseCommonFlags(flags, 800, 12, {"k"});
  if (!ApplyQueryLogFlags(common)) return 1;
  const int trees = common.trees;
  const int queries = common.queries;
  const int k = static_cast<int>(flags.GetInt("k", 5));
  BenchReport report("ablation_histogram_budget");
  ReportCommonConfig(common, report);
  report.config().Int("k", k);
  std::printf("=== Ablation: histogram filter space budget (DBLP-like, "
              "%d-NN) ===\n",
              k);

  auto labels = std::make_shared<LabelDictionary>();
  DblpGenerator gen(DblpParams{}, labels, common.seed);
  auto db = MakeDatabase(labels, gen.Generate(trees));

  const HistogramFilter::Options equal_space =
      NormalizedHistogramOptions(*db);
  std::printf("equal-space point: %d label buckets, %d degree buckets "
              "(distinct labels in the dataset: %zu)\n",
              equal_space.label_buckets, equal_space.degree_buckets,
              labels->size());

  auto run = [&](const char* label, std::unique_ptr<FilterIndex> filter) {
    SimilaritySearch engine(db.get(), std::move(filter));
    Rng rng(31337);
    QueryStats total;
    for (int qi = 0; qi < queries; ++qi) {
      const Tree& query = db->tree(
          static_cast<int>(rng.UniformIndex(static_cast<size_t>(db->size()))));
      total += engine.Knn(query, k).stats;
    }
    std::printf("  %-28s accessed%%=%-8.3f\n", label,
                100.0 * total.AccessedFraction());
    report.AddPoint()
        .Str("label", label)
        .Int("queries", queries)
        .Int("k", k)
        .Double("accessed_pct", 100.0 * total.AccessedFraction())
        .Double("cpu_seconds", total.TotalSeconds())
        .Raw("stats", QueryStatsJson(total));
  };

  for (const int buckets : {4, 8, 16, 32, 64, 0}) {
    HistogramFilter::Options o;
    o.label_buckets = buckets;
    o.degree_buckets = buckets;
    char label[64];
    if (buckets == 0) {
      std::snprintf(label, sizeof(label), "Histo unbounded");
    } else {
      std::snprintf(label, sizeof(label), "Histo %d+%d buckets", buckets,
                    buckets);
    }
    run(label, std::make_unique<HistogramFilter>(o));
  }
  run("Histo equal-space (paper)",
      std::make_unique<HistogramFilter>(equal_space));
  run("BiBranch(2) positional", std::make_unique<BiBranchFilter>());
  std::printf("expected: Histo strengthens with budget; BiBranch beats the "
              "equal-space configuration the paper's comparison uses\n\n");
  return report.WriteIfRequested(common.json_path) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace treesim

int main(int argc, char** argv) { return treesim::bench::Main(argc, argv); }
