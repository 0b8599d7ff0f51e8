// Parallel scaling of every pool user: the pairwise distance matrix, batch
// k-NN and the similarity join over the filter-and-refine engine. A pool
// runs whole units (matrix rows, queries, left trees), each on one thread.
// Each layer runs sequentially and then over a worker pool; the binary
// prints wall-clock speedups and verifies that the parallel results are
// identical to the sequential ones (the determinism contract the unit
// tests pin down on small corpora).
//
// Expected shape: pairwise speedup approaches the worker count (rows are
// embarrassingly parallel); batch k-NN and the join run their queries and
// left trees in parallel, each one sequential probe or sweep, so they
// scale until uneven per-unit costs leave workers idle at the end.
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "bench_util.h"
#include "search/pairwise.h"
#include "search/similarity_join.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace treesim {
namespace bench {
namespace {

void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FATAL: parallel result differs from sequential "
                         "(%s)\n", what);
    std::abort();
  }
}

/// Per-stage attribution of one parallel layer, from the registry delta:
/// how many pool tasks ran, their mean latency, and where the query engine
/// spent its time. Sequential/parallel diffs of the same layer make the
/// coordination overhead visible, not just the wall-clock ratio.
void PrintLayerBreakdown(const char* layer, const MetricsSnapshot& d) {
  if (!kMetricsEnabled) return;
  const MetricsSnapshot::HistogramValue* task = d.histogram(
      "threadpool.task_micros");
  std::printf("  %-11s tasks=%-5lld task_mean=%-7.0fus ted_calls=%-7lld "
              "knn_filter_mean=%.0fus knn_refine_mean=%.0fus\n",
              layer,
              static_cast<long long>(d.counter("threadpool.tasks_scheduled")),
              task == nullptr ? 0.0 : task->Mean(),
              static_cast<long long>(d.counter("ted.zhang_shasha_calls")),
              d.histogram("search.knn.filter_micros") == nullptr
                  ? 0.0
                  : d.histogram("search.knn.filter_micros")->Mean(),
              d.histogram("search.knn.refine_micros") == nullptr
                  ? 0.0
                  : d.histogram("search.knn.refine_micros")->Mean());
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const CommonFlags common = ParseCommonFlags(flags, 300, 20);
  if (!ApplyQueryLogFlags(common)) return 1;
  const int trees = common.trees;
  const int queries = common.queries;
  const int k = static_cast<int>(flags.GetInt("k", 5));
  const uint64_t seed = common.seed;
  // The pool every layer maps over; 0 (the default) is every hardware
  // thread.
  const int workers = ClampThreads(
      static_cast<int>(flags.GetInt("threads", 0)), trees);
  BenchReport report("parallel_speedup");
  ReportCommonConfig(common, report);
  report.config().Int("k", k).Int("workers", workers);

  auto labels = std::make_shared<LabelDictionary>();
  SyntheticParams params;
  params.size_mean = 40;
  params.fanout_mean = 4;
  params.label_count = 8;
  SyntheticGenerator gen(params, labels, seed);
  auto db = MakeDatabase(labels, gen.GenerateDataset(trees));

  // One report point per layer: sequential/parallel wall seconds + speedup.
  const auto report_layer = [&report](const char* layer, double seq_seconds,
                                      double par_seconds,
                                      const MetricsSnapshot& delta) {
    report.AddPoint()
        .Str("label", layer)
        .Double("sequential_seconds", seq_seconds)
        .Double("parallel_seconds", par_seconds)
        .Double("speedup", par_seconds > 0 ? seq_seconds / par_seconds : 0.0)
        .Raw("metrics", delta.ToJson());
  };

  std::printf("=== parallel speedup: %d trees, %d workers ===\n", trees,
              workers);
  ThreadPool pool(workers);

  // Layer 1: pairwise distance matrix (rows fan out, disjoint slices).
  Stopwatch seq_timer;
  const PairwiseDistances seq_matrix = ComputePairwiseDistances(*db, nullptr);
  const double seq_pairwise = seq_timer.ElapsedSeconds();
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  Stopwatch par_timer;
  const PairwiseDistances par_matrix = ComputePairwiseDistances(*db, &pool);
  const double par_pairwise = par_timer.ElapsedSeconds();
  Require(seq_matrix.Mean() == par_matrix.Mean(), "pairwise matrix");
  std::printf("pairwise:    %8.3fs -> %8.3fs  speedup %.2fx\n", seq_pairwise,
              par_pairwise, seq_pairwise / par_pairwise);
  {
    const MetricsSnapshot delta =
        MetricsRegistry::Global().Snapshot().DiffSince(snap);
    PrintLayerBreakdown("pairwise", delta);
    report_layer("pairwise", seq_pairwise, par_pairwise, delta);
  }

  // Layer 2: batch k-NN through the filter-and-refine engine.
  std::vector<Tree> query_set;
  Rng rng(seed);
  for (int qi = 0; qi < queries; ++qi) {
    query_set.push_back(db->tree(
        static_cast<int>(rng.UniformIndex(static_cast<size_t>(db->size())))));
  }
  SimilaritySearch engine(db.get(), std::make_unique<BiBranchFilter>());
  Stopwatch seq_knn_timer;
  const BatchKnnResult seq_knn = engine.BatchKnn(query_set, k, nullptr);
  const double seq_batch = seq_knn_timer.ElapsedSeconds();
  snap = MetricsRegistry::Global().Snapshot();
  Stopwatch par_knn_timer;
  const BatchKnnResult par_knn = engine.BatchKnn(query_set, k, &pool);
  const double par_batch = par_knn_timer.ElapsedSeconds();
  for (size_t qi = 0; qi < query_set.size(); ++qi) {
    Require(seq_knn.per_query[qi].neighbors == par_knn.per_query[qi].neighbors,
            "batch k-NN neighbors");
  }
  std::printf("batch k-NN:  %8.3fs -> %8.3fs  speedup %.2fx\n", seq_batch,
              par_batch, seq_batch / par_batch);
  {
    const MetricsSnapshot delta =
        MetricsRegistry::Global().Snapshot().DiffSince(snap);
    PrintLayerBreakdown("batch k-NN", delta);
    report_layer("batch_knn", seq_batch, par_batch, delta);
  }

  // Layer 3: the query set joined against the database at the paper's
  // range, a fifth of the sampled average distance (Section 5).
  const auto left = MakeDatabase(labels, query_set);
  const int tau = static_cast<int>(0.2 * db->EstimateAverageDistance(rng, 300));
  SimilarityJoin join(db.get(), std::make_unique<BiBranchFilter>());
  Stopwatch seq_join_timer;
  const JoinResult seq_join = join.Join(*left, tau, nullptr);
  const double seq_joined = seq_join_timer.ElapsedSeconds();
  snap = MetricsRegistry::Global().Snapshot();
  Stopwatch par_join_timer;
  const JoinResult par_join = join.Join(*left, tau, &pool);
  const double par_joined = par_join_timer.ElapsedSeconds();
  Require(seq_join.pairs == par_join.pairs, "join pairs");
  std::printf("join tau=%d: %7.3fs -> %8.3fs  speedup %.2fx\n", tau,
              seq_joined, par_joined, seq_joined / par_joined);
  {
    const MetricsSnapshot delta =
        MetricsRegistry::Global().Snapshot().DiffSince(snap);
    PrintLayerBreakdown("join", delta);
    report_layer("join", seq_joined, par_joined, delta);
  }

  std::printf("expected shape: pairwise speedup near the worker count; "
              "k-NN and join sublinear\n\n");
  return report.WriteIfRequested(common.json_path) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace treesim

int main(int argc, char** argv) { return treesim::bench::Main(argc, argv); }
