// Ablation: every filter in the library against the same workloads — the
// paper's BiBranch (positional at q=2/3/4, and plain), the histogram
// baseline (Kailing et al.), and the related-work sequence bounds of
// Section 2.2 (Guha et al. exact SED, Ukkonen q-grams on traversal
// sequences). Reports accessed-data % and CPU split, for a range and a k-NN
// workload on a bushy synthetic, a DBLP-like and a deep synthetic dataset.
// The q rows test Section 3.4's hypothesis that multi-level branches pay
// off once trees are deep enough to fill the taller perfect-binary window.
// On these three datasets, the deep one included, q = 3 and 4 are looser
// than q = 2 (EXPERIMENTS.md).
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "datagen/dblp_generator.h"
#include "filters/sequence_filter.h"

namespace treesim {
namespace bench {
namespace {

struct NamedFilter {
  const char* label;
  std::unique_ptr<FilterIndex> (*make)();
};

const NamedFilter kFilters[] = {
    {"BiBranch(2) positional",
     [] {
       return std::unique_ptr<FilterIndex>(new BiBranchFilter());
     }},
    {"BiBranch(2) plain",
     [] {
       BiBranchFilter::Options o;
       o.positional = false;
       return std::unique_ptr<FilterIndex>(new BiBranchFilter(o));
     }},
    {"BiBranch(3) positional",
     [] {
       BiBranchFilter::Options o;
       o.q = 3;
       return std::unique_ptr<FilterIndex>(new BiBranchFilter(o));
     }},
    {"BiBranch(4) positional",
     [] {
       BiBranchFilter::Options o;
       o.q = 4;
       return std::unique_ptr<FilterIndex>(new BiBranchFilter(o));
     }},
    {"Histo (unbounded)",
     [] {
       return std::unique_ptr<FilterIndex>(new HistogramFilter());
     }},
    {"SeqED (Guha et al.)",
     [] {
       SequenceFilter::Options o;
       o.mode = SequenceFilter::Options::Mode::kEditDistance;
       return std::unique_ptr<FilterIndex>(new SequenceFilter(o));
     }},
    {"SeqQGram(2)",
     [] {
       return std::unique_ptr<FilterIndex>(new SequenceFilter());
     }},
};

void RunDataset(const char* dataset_name, const TreeDatabase& db,
                int queries, int tau, int k, BenchReport& report) {
  std::printf("--- %s: %d trees, avg size %.1f | range tau=%d, %d-NN, "
              "%d queries ---\n",
              dataset_name, db.size(), db.AverageTreeSize(), tau, k, queries);
  std::printf("%-26s %10s %10s %12s %12s\n", "filter", "range%", "knn%",
              "rangeCPU(s)", "knnCPU(s)");
  for (const NamedFilter& nf : kFilters) {
    SimilaritySearch engine(&db, nf.make());
    Rng rng(4242);
    QueryStats range_total;
    QueryStats knn_total;
    for (int qi = 0; qi < queries; ++qi) {
      const Tree& query = db.tree(
          static_cast<int>(rng.UniformIndex(static_cast<size_t>(db.size()))));
      range_total += engine.Range(query, tau).stats;
      knn_total += engine.Knn(query, k).stats;
    }
    std::printf("%-26s %10.3f %10.3f %12.3f %12.3f\n", nf.label,
                100.0 * range_total.AccessedFraction(),
                100.0 * knn_total.AccessedFraction(),
                range_total.TotalSeconds(), knn_total.TotalSeconds());
    JsonObject stats;
    stats.Raw("range", QueryStatsJson(range_total))
        .Raw("knn", QueryStatsJson(knn_total));
    report.AddPoint()
        .Str("label", nf.label)
        .Str("dataset", dataset_name)
        .Int("queries", queries)
        .Int("tau", tau)
        .Int("k", k)
        .Double("range_pct", 100.0 * range_total.AccessedFraction())
        .Double("knn_pct", 100.0 * knn_total.AccessedFraction())
        .Double("range_cpu_seconds", range_total.TotalSeconds())
        .Double("knn_cpu_seconds", knn_total.TotalSeconds())
        .Raw("stats", stats.Render());
  }
  std::printf("\n");
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const CommonFlags common = ParseCommonFlags(flags, 800, 8);
  if (!ApplyQueryLogFlags(common)) return 1;
  const int trees = common.trees;
  const int queries = common.queries;
  BenchReport report("ablation_filters");
  ReportCommonConfig(common, report);
  std::printf("=== Ablation: filter comparison (incl. related-work "
              "baselines) ===\n");

  {
    auto labels = std::make_shared<LabelDictionary>();
    SyntheticParams params;  // the paper's default N{4,0.5}N{50,2}L8D0.05
    SyntheticGenerator gen(params, labels, common.seed);
    auto db = MakeDatabase(labels, gen.GenerateDataset(trees));
    Rng rng(9);
    const int tau =
        static_cast<int>(db->EstimateAverageDistance(rng, 200) / 5);
    RunDataset("synthetic N{4,0.5}N{50,2}L8", *db, queries, tau,
               std::max(1, trees / 400), report);
  }
  {
    auto labels = std::make_shared<LabelDictionary>();
    DblpGenerator gen(DblpParams{}, labels, common.seed);
    auto db = MakeDatabase(labels, gen.Generate(trees));
    RunDataset("DBLP-like", *db, queries, /*tau=*/2,
               std::max(1, trees / 400), report);
  }
  {
    // Fanout close to 1 yields deep, path-like trees.
    auto labels = std::make_shared<LabelDictionary>();
    SyntheticParams params;
    params.fanout_mean = 1.2;
    params.fanout_stddev = 0.4;
    params.size_mean = 40;
    params.size_stddev = 2;
    params.label_count = 8;
    SyntheticGenerator gen(params, labels, common.seed);
    auto db = MakeDatabase(labels, gen.GenerateDataset(trees));
    Rng rng(9);
    const int tau =
        static_cast<int>(db->EstimateAverageDistance(rng, 200) / 5);
    RunDataset("deep N{1.2,0.4}N{40,2}L8", *db, queries, tau,
               std::max(1, trees / 400), report);
  }
  std::printf("expected: positional BiBranch tightest overall; SeqED tight "
              "but with by far the largest filter CPU (quadratic per pair); "
              "SeqQGram cheap but loose; larger q looser than q = 2 on all "
              "three datasets, deep included\n\n");
  return report.WriteIfRequested(common.json_path) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace treesim

int main(int argc, char** argv) { return treesim::bench::Main(argc, argv); }
