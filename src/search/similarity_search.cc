#include "search/similarity_search.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <string>
#include <tuple>

#include "filters/filter_index.h"
#include "search/pipeline_internal.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/safe_math.h"
#include "util/stopwatch.h"
#include "util/structured_log.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace treesim {
namespace pipeline {

Op::Op(OpKind kind, const char* tag, const char* span, const char* filter_span,
       const char* refine_span, const char* event)
    : kind(kind),
      tag(tag),
      span(span),
      filter_span(filter_span),
      refine_span(refine_span),
      event(event == nullptr ? tag : event) {
  if constexpr (kMetricsEnabled) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    const std::string prefix = span;
    const auto counter = [&](const char* name) {
      return &registry.GetCounter(prefix + name);
    };
    const auto histogram = [&](const char* name,
                               const std::vector<int64_t>& buckets) {
      return &registry.GetHistogram(prefix + name, buckets);
    };
    queries = counter(kind == OpKind::kJoin ? ".joins" : ".queries");
    window = &registry.GetWindow(prefix + ".latency_window");
    bounded_cells = &registry.GetCounter("ted.bounded_cells_computed");
    if (kind == OpKind::kBatch) return;  // its member queries report the rest
    refined = counter(".refined");
    results = counter(".results");
    filter_micros = histogram(".filter_micros", LatencyBucketsMicros());
    refine_micros = histogram(".refine_micros", LatencyBucketsMicros());
    if (kind == OpKind::kKnn) {
      bounds_computed = counter(".bounds_computed");
      per_query = histogram(".refined_per_query", CountBuckets());
      bound_gap = histogram(".bound_gap", SmallValueBuckets());
      return;
    }
    candidates = counter(".candidates");
    if (kind == OpKind::kRange) {
      per_query = histogram(".candidates_per_query", CountBuckets());
    } else {
      pairs_considered = counter(".pairs_considered");
    }
  }
}

std::vector<int> Engine::Candidates(const FilterQueryContext* ctx,
                                    double unit_tau, int first) const {
  std::vector<int> ids;
  ids.reserve(static_cast<size_t>(db.size() - first));
  for (int id = first; id < db.size(); ++id) {
    if (filter == nullptr || filter->MayQualify(*ctx, id, unit_tau)) {
      ids.push_back(id);
    }
  }
  return ids;
}

namespace {

/// The range query under either cost policy. The filter runs at tau / scale
/// unit operations, the most a tree within distance tau can need; its
/// context outlives the step for the debug soundness check in Refine.
template <typename Result, typename Costs>
Result RunRange(const Engine& engine, const Op& op, const Costs& costs,
                const Tree& query, typename Costs::Distance tau,
                ThreadPool* pool) {
  const QueryScope scope(op);
  Result result;
  result.stats.database_size = engine.db.size();
  std::unique_ptr<FilterQueryContext> ctx;
  std::vector<int> candidates;
  Stopwatch filter_timer;
  {
    const TraceSpan span(op.filter_span);
    ctx = engine.Prepare(query);
    candidates = engine.Candidates(ctx.get(), tau / costs.scale, 0);
  }
  result.stats.filter_seconds = filter_timer.ElapsedSeconds();
  result.stats.candidates = static_cast<int64_t>(candidates.size());

  Stopwatch refine_timer;
  {
    const TraceSpan span(op.refine_span);
    result.matches = engine.Refine(costs, ctx.get(), TedTree::FromTree(query),
                                   candidates, tau, pool);
  }
  result.stats.edit_distance_calls = result.stats.candidates;
  result.stats.refine_seconds = refine_timer.ElapsedSeconds();
  std::sort(result.matches.begin(), result.matches.end(),
            [](const auto& a, const auto& b) {
              return std::tie(a.second, a.first) < std::tie(b.second, b.first);
            });
  result.stats.results = static_cast<int64_t>(result.matches.size());
  scope.Finish(tau, result.stats, engine.filter, [](LogRecord&) {});
  return result;
}

/// Algorithm 2 (optimal multi-step k-NN) under either cost policy.
template <typename Result, typename Costs>
Result RunKnn(const Engine& engine, const Op& op, const Costs& costs,
              const Tree& query, int k, ThreadPool* pool) {
  using Distance = typename Costs::Distance;
  const QueryScope scope(op);
  Result result;
  const int n = engine.db.size();
  result.stats.database_size = n;

  // Step 1: a lower bound for every tree (lines 1-3), in the cost model's
  // units. PrepareQuery may extend shared dictionaries, so only the per-tree
  // bounds, pure reads, fan out.
  Stopwatch filter_timer;
  std::vector<std::pair<double, int>> ranked(static_cast<size_t>(n));
  for (int id = 0; id < n; ++id) ranked[static_cast<size_t>(id)] = {0.0, id};
  if (engine.filter != nullptr) {
    const TraceSpan span(op.filter_span);
    const std::unique_ptr<FilterQueryContext> ctx = engine.Prepare(query);
    ParallelFor(pool, n, [&](int64_t id) {
      ranked[static_cast<size_t>(id)].first =
          costs.scale * engine.filter->LowerBound(*ctx, static_cast<int>(id));
    });
    // Step 2: ascending by (bound, id) (line 4), so the most promising trees
    // are refined first and the break triggers as early as possible.
    std::sort(ranked.begin(), ranked.end());
  }
  result.stats.filter_seconds = filter_timer.ElapsedSeconds();

  // Step 3: the pruning sweep (lines 5-15) over bound-ascending blocks and a
  // max-heap of the k best (distance, id). A block verifies into slots at
  // `kth`, the k-th best at block start (kUnbounded while the heap fills),
  // then merges in order. Trees with bound > kth are skipped, and the sweep
  // stops at a block that starts with one: exact >= bound > kth >= the final
  // k-th best. A stale kth only errs larger, so neighbors verify exactly and
  // a clamped d (> kth >= every later top) loses the merge as its full
  // distance would. Without a pool a block is one tree (the sequential
  // sweep); with one, only the verification count may grow.
  Stopwatch refine_timer;
  std::priority_queue<std::pair<Distance, int>> heap;
  double gap_sum = 0.0;  // sum of (exact - bound): pruning power, Section 5
  {
    const TraceSpan span(op.refine_span);
    const TedTree query_view = TedTree::FromTree(query);
    ThreadPool* const fan =
        pool != nullptr && pool->size() > 1 ? pool : nullptr;
    const int64_t block =
        fan == nullptr ? 1 : std::max<int64_t>(k, 8 * int64_t{fan->size()});
    constexpr Distance kSkipped = -1;
    std::vector<Distance> slots(
        static_cast<size_t>(std::min<int64_t>(block, n)));
    int64_t start = 0;
    Distance kth = Costs::kUnbounded;
    const std::function<void(int64_t)> verify = [&](int64_t i) {
      const auto& [bound, id] = ranked[static_cast<size_t>(start + i)];
      slots[static_cast<size_t>(i)] =
          bound > kth ? kSkipped
                      : costs.Verify(query_view, engine.db.ted_view(id), kth);
    };
    for (; start < n; start += block) {
      kth = static_cast<int>(heap.size()) == k ? heap.top().first
                                               : Costs::kUnbounded;
      if (ranked[static_cast<size_t>(start)].first > kth) break;
      const int64_t end = std::min<int64_t>(start + block, n);
      ParallelFor(fan, end - start, verify);
      for (int64_t i = 0; i < end - start; ++i) {
        const Distance d = slots[static_cast<size_t>(i)];
        if (d == kSkipped) continue;
        const auto& [bound, id] = ranked[static_cast<size_t>(start + i)];
        ++result.stats.edit_distance_calls;
        // A bound above the distance would let the break drop neighbors.
        TREESIM_DCHECK_LE(bound, static_cast<double>(d) + 1e-9)
            << "unsound lower bound on tree " << id;
        // A clamped distance counts as kth + 1, the unit verifier's clamp.
        const double gap = std::fmin(static_cast<double>(d), kth + 1.0) -
                           std::trunc(bound);
        gap_sum = CheckedAddAny(gap_sum, gap);
        if (op.bound_gap != nullptr) {
          op.bound_gap->Record(SaturatingFloor<int64_t>(gap, 0));
        }
        if (static_cast<int>(heap.size()) < k) {
          heap.emplace(d, id);
        } else if (std::make_pair(d, id) < heap.top()) {
          heap.pop();
          heap.emplace(d, id);
        }
      }
    }
  }
  result.stats.refine_seconds = refine_timer.ElapsedSeconds();
  result.stats.candidates = result.stats.edit_distance_calls;

  result.neighbors.resize(heap.size());
  for (size_t i = heap.size(); i-- > 0;) {
    result.neighbors[i] = {heap.top().second, heap.top().first};
    heap.pop();
  }
  result.stats.results = static_cast<int64_t>(result.neighbors.size());
  scope.Finish(k, result.stats, engine.filter, [&](LogRecord& line) {
    const int64_t refined = result.stats.edit_distance_calls;
    line.Double("bound_gap_mean",
                refined > 0 ? gap_sum / static_cast<double>(refined) : 0.0);
    if (!result.neighbors.empty()) {
      AppendValue(line, "kth_distance", result.neighbors.back().second);
    }
  });
  return result;
}

}  // namespace
}  // namespace pipeline

using pipeline::Op;
using pipeline::OpKind;
using pipeline::QueryScope;
using pipeline::RunKnn;
using pipeline::RunRange;
using pipeline::UnitCosts;
using pipeline::WeightedCosts;

SimilaritySearch::SimilaritySearch(const TreeDatabase* db,
                                   std::unique_ptr<FilterIndex> filter)
    : db_(db), filter_(std::move(filter)) {
  TREESIM_CHECK(db_ != nullptr);
  if (filter_ != nullptr) filter_->Build(db_->trees());
}

std::string SimilaritySearch::filter_name() const {
  return filter_ == nullptr ? "Sequential" : filter_->name();
}

RangeResult SimilaritySearch::Range(const Tree& query, int tau,
                                    ThreadPool* pool) {
  static const Op op(OpKind::kRange, "range", "search.range",
                     "search.range.filter", "search.range.refine");
  return RunRange<RangeResult>({*db_, filter_.get()}, op, UnitCosts{}, query,
                               tau, pool);
}

KnnResult SimilaritySearch::Knn(const Tree& query, int k, ThreadPool* pool) {
  TREESIM_CHECK_GT(k, 0);
  static const Op op(OpKind::kKnn, "knn", "search.knn", "search.knn.filter",
                     "search.knn.refine");
  return RunKnn<KnnResult>({*db_, filter_.get()}, op, UnitCosts{}, query, k,
                           pool);
}

BatchKnnResult SimilaritySearch::BatchKnn(const std::vector<Tree>& queries,
                                          int k, ThreadPool* pool) {
  static const Op op(OpKind::kBatch, "batch_knn", "search.batch_knn", nullptr,
                     nullptr);
  // The batch gets its own context; each member Knn() nests its own, so
  // member telemetry keys to the member and the summary to the batch.
  // Members run in order, since PrepareQuery may extend shared dictionaries.
  const QueryScope scope(op, static_cast<int64_t>(queries.size()));
  BatchKnnResult out;
  out.per_query.reserve(queries.size());
  for (const Tree& query : queries) {
    out.per_query.push_back(Knn(query, k, pool));
    out.combined += out.per_query.back().stats;
  }
  scope.Finish(k, out.combined, filter_.get(), [&](LogRecord& line) {
    line.Int("queries", static_cast<int64_t>(queries.size()));
  });
  return out;
}

WeightedRangeResult SimilaritySearch::RangeWeighted(const Tree& query,
                                                    double tau,
                                                    const CostModel& costs) {
  const WeightedCosts weighted(costs);
  static const Op op(OpKind::kRange, "range_weighted", "search.range_weighted",
                     "search.range_weighted.filter",
                     "search.range_weighted.refine");
  return RunRange<WeightedRangeResult>({*db_, filter_.get()}, op, weighted,
                                       query, tau, /*pool=*/nullptr);
}

WeightedKnnResult SimilaritySearch::KnnWeighted(const Tree& query, int k,
                                                const CostModel& costs) {
  const WeightedCosts weighted(costs);
  TREESIM_CHECK_GT(k, 0);
  static const Op op(OpKind::kKnn, "knn_weighted", "search.knn_weighted",
                     "search.knn_weighted.filter",
                     "search.knn_weighted.refine");
  return RunKnn<WeightedKnnResult>({*db_, filter_.get()}, op, weighted, query,
                                   k, /*pool=*/nullptr);
}

}  // namespace treesim
