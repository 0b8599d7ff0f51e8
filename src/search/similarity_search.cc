#include "search/similarity_search.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <string>
#include <tuple>

#include "filters/filter_index.h"
#include "search/pipeline_internal.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/query_context.h"
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

namespace {

/// The range query under either cost policy: one probe from id 0, its
/// matches ordered by (distance, id).
template <typename Result, typename Costs>
Result RunRange(const Engine& engine, const Op& op, const Costs& costs,
                const Tree& query, typename Costs::Distance tau) {
  const QueryScope scope(op);
  Result result;
  result.matches = engine.Probe(op, costs, query, TedTree::FromTree(query),
                                tau, /*first=*/0, result.stats);
  std::sort(result.matches.begin(), result.matches.end(),
            [](const auto& a, const auto& b) {
              return std::tie(a.second, a.first) < std::tie(b.second, b.first);
            });
  result.stats.results = static_cast<int64_t>(result.matches.size());
  scope.Finish(tau, result.stats, engine.filter, [](LogRecord&) {});
  return result;
}

/// Algorithm 2 (optimal multi-step k-NN) under either cost policy, as the
/// query `query_id`, which the caller allocated on its own thread.
template <typename Result, typename Costs>
Result RunKnn(const Engine& engine, const Op& op, const Costs& costs,
              const Tree& query, int k, int64_t query_id) {
  using Distance = typename Costs::Distance;
  TREESIM_CHECK_GT(k, 0);
  const QueryScope scope(op, QueryContext{query_id, op.tag});
  Result result;
  const int n = engine.db.size();
  result.stats.database_size = n;

  // Step 1: a lower bound for every tree (lines 1-3), in the cost model's
  // units.
  Stopwatch filter_timer;
  std::vector<std::pair<double, int>> ranked(static_cast<size_t>(n));
  for (int id = 0; id < n; ++id) ranked[static_cast<size_t>(id)] = {0.0, id};
  if (engine.filter != nullptr) {
    const TraceSpan span(op.filter_span);
    const std::unique_ptr<FilterQueryContext> ctx = engine.Prepare(query);
    for (auto& [bound, id] : ranked) {
      bound = costs.scale * engine.filter->LowerBound(*ctx, id);
    }
    // Step 2: ascending by (bound, id) (line 4), so the most promising trees
    // are refined first and the break triggers as early as possible.
    std::sort(ranked.begin(), ranked.end());
  }
  result.stats.filter_seconds = filter_timer.ElapsedSeconds();

  // Step 3: the pruning sweep (lines 5-15) in bound order, with a max-heap
  // of the k best (distance, id). Each tree verifies at `kth`, the k-th best
  // so far (kUnbounded while the heap fills), and the sweep stops at the
  // first bound above it: exact >= bound > kth >= the final k-th best. A
  // clamped d (> kth) loses the heap test as its full distance would.
  Stopwatch refine_timer;
  std::priority_queue<std::pair<Distance, int>> heap;
  double gap_sum = 0.0;  // sum of (exact - bound): pruning power, Section 5
  {
    const TraceSpan span(op.refine_span);
    const TedTree query_view = TedTree::FromTree(query);
    for (const auto& [bound, id] : ranked) {
      const bool full = static_cast<int>(heap.size()) == k;
      const Distance kth = full ? heap.top().first : Costs::kUnbounded;
      if (bound > kth) break;
      const Distance d =
          costs.Verify(query_view, engine.db.ted_view(id), kth, result.stats);
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
      if (!full) {
        heap.emplace(d, id);
      } else if (std::make_pair(d, id) < heap.top()) {
        heap.pop();
        heap.emplace(d, id);
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

/// Knn and BatchKnn's members report as one op.
const Op& KnnOp() {
  static const Op op(OpKind::kKnn, "knn", "search.knn", "search.knn.filter",
                     "search.knn.refine");
  return op;
}

}  // namespace
}  // namespace pipeline

using pipeline::KnnOp;
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
  indexed_size_ = db_->size();
}

std::string SimilaritySearch::filter_name() const {
  return filter_ == nullptr ? "Sequential" : filter_->name();
}

RangeResult SimilaritySearch::Range(const Tree& query, int tau) const {
  static const Op op(OpKind::kRange, "range", "search.range",
                     "search.range.filter", "search.range.refine");
  return RunRange<RangeResult>({*db_, filter_.get(), indexed_size_}, op,
                               UnitCosts{}, query, tau);
}

KnnResult SimilaritySearch::Knn(const Tree& query, int k) const {
  return RunKnn<KnnResult>({*db_, filter_.get(), indexed_size_}, KnnOp(),
                           UnitCosts{}, query, k, AllocateQueryId());
}

BatchKnnResult SimilaritySearch::BatchKnn(const std::vector<Tree>& queries,
                                          int k, ThreadPool* pool) const {
  static const Op op(OpKind::kBatch, "batch_knn", "search.batch_knn", nullptr,
                     nullptr);
  // The batch gets its own context and each member its own, so member
  // telemetry keys to the member and the summary to the batch. Member ids
  // are allocated here, in query order, before the members fan out.
  const QueryScope scope(op, static_cast<int64_t>(queries.size()));
  const pipeline::Engine engine(*db_, filter_.get(), indexed_size_);
  std::vector<int64_t> ids(queries.size());
  for (int64_t& id : ids) id = AllocateQueryId();
  BatchKnnResult out;
  out.per_query.resize(queries.size());
  ParallelFor(pool, static_cast<int64_t>(queries.size()), [&](int64_t i) {
    const size_t q = static_cast<size_t>(i);
    out.per_query[q] =
        RunKnn<KnnResult>(engine, KnnOp(), UnitCosts{}, queries[q], k, ids[q]);
  });
  for (const KnnResult& member : out.per_query) out.combined += member.stats;
  scope.Finish(k, out.combined, filter_.get(), [&](LogRecord& line) {
    line.Int("queries", static_cast<int64_t>(queries.size()));
  });
  return out;
}

WeightedRangeResult SimilaritySearch::RangeWeighted(
    const Tree& query, double tau, const CostModel& costs) const {
  const WeightedCosts weighted(costs);
  static const Op op(OpKind::kRange, "range_weighted", "search.range_weighted",
                     "search.range_weighted.filter",
                     "search.range_weighted.refine");
  return RunRange<WeightedRangeResult>({*db_, filter_.get(), indexed_size_},
                                       op, weighted, query, tau);
}

WeightedKnnResult SimilaritySearch::KnnWeighted(const Tree& query, int k,
                                                const CostModel& costs) const {
  const WeightedCosts weighted(costs);
  static const Op op(OpKind::kKnn, "knn_weighted", "search.knn_weighted",
                     "search.knn_weighted.filter",
                     "search.knn_weighted.refine");
  return RunKnn<WeightedKnnResult>({*db_, filter_.get(), indexed_size_}, op,
                                   weighted, query, k, AllocateQueryId());
}

}  // namespace treesim
