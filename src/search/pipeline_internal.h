#ifndef TREESIM_SEARCH_PIPELINE_INTERNAL_H_
#define TREESIM_SEARCH_PIPELINE_INTERNAL_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "filters/filter_index.h"
#include "search/query_stats.h"
#include "search/tree_database.h"
#include "ted/bounded_ted.h"
#include "ted/cost_model.h"
#include "util/flight_recorder.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/query_context.h"
#include "util/safe_math.h"
#include "util/stopwatch.h"
#include "util/structured_log.h"
#include "util/trace.h"

/// The one filter-and-refine pipeline (Section 4: Algorithm 2 and its range
/// variant) under all six SimilaritySearch / SimilarityJoin entry points:
/// Engine::Probe is the range step (filter, then verify and keep),
/// RunKnn (similarity_search.cc) is the Algorithm-2 sweep, and
/// QueryScope::Finish feeds every sink from one FlightRecord. Each runs on
/// the thread that calls it. The distance-typed pieces are templated on a
/// cost policy, so unit and weighted queries cannot drift.
namespace treesim::pipeline {

/// Unit costs: integer distances, verified by BoundedTreeEditDistance, with
/// INT_MAX as "unbounded" (the verifier then runs the plain kernel). Filter
/// bounds count unit operations, so they need no scaling.
struct UnitCosts {
  using Distance = int;
  static constexpr Distance kUnbounded = std::numeric_limits<int>::max();
  double scale = 1.0;

  /// Adds the call's banded cells to `stats.ted_cells`.
  Distance Verify(const TedTree& a, const TedTree& b, Distance tau,
                  QueryStats& stats) const {
    return BoundedTreeEditDistance(a, b, tau, &stats.ted_cells);
  }
};

/// A general cost model (Section 2.1): real distances with +inf as
/// "unbounded". A weighted-optimal script has at least as many operations
/// as any unit-cost bound counts, each costing >= MinOperationCost(), so
/// bounds scale by that constant and stay sound.
struct WeightedCosts {
  using Distance = double;
  static constexpr Distance kUnbounded =
      std::numeric_limits<double>::infinity();

  explicit WeightedCosts(const CostModel& costs)
      : model(costs), scale(costs.MinOperationCost()) {
    TREESIM_CHECK_GT(scale, 0.0) << "MinOperationCost must be positive";
  }

  Distance Verify(const TedTree& a, const TedTree& b, Distance tau,
                  QueryStats& stats) const {
    return BoundedTreeEditDistanceWeighted(a, b, tau, model,
                                           &stats.ted_cells);
  }

  const CostModel& model;
  double scale;
};

/// The funnel an entry point reports, which selects its metric set.
enum class OpKind { kRange, kKnn, kBatch, kJoin };

/// One entry point's names (literals: spans and query contexts keep the
/// pointer) and metric handles, resolved once by the entry's function-local
/// static Op (the TREESIM_COUNTER_* macros cache per call site, so shared
/// code cannot use them). Null: no such metric, or TREESIM_METRICS=OFF.
struct Op {
  Op(OpKind kind, const char* tag, const char* span, const char* filter_span,
     const char* refine_span);

  OpKind kind;
  const char* tag;   ///< query-context tag, flight-record op, log event
  const char* span;  ///< top-level span and metric-name prefix
  const char* filter_span;
  const char* refine_span;
  Counter* queries = nullptr;  ///< ".queries" (".joins" for a join)
  Counter* candidates = nullptr;
  Counter* results = nullptr;
  Counter* bounds_computed = nullptr;   ///< k-NN: one bound per tree
  Counter* pairs_considered = nullptr;  ///< join: its database_size
  Histogram* filter_micros = nullptr;
  Histogram* refine_micros = nullptr;
  Histogram* per_query = nullptr;  ///< candidates (range and k-NN)
  Histogram* bound_gap = nullptr;  ///< k-NN: exact distance minus bound
  LatencyWindow* window = nullptr;
};

/// Appends a distance-typed value; Double() renders a non-finite one null.
template <typename T>
void AppendValue(JsonObject& line, const char* key, T value) {
  if constexpr (std::is_integral_v<T>) {
    line.Int(key, value);
  } else {
    line.Double(key, value);
  }
}

/// One query from entry to Finish(). Opens the query context, then the
/// top-level span, in that order so the span carries the query id.
class QueryScope {
 public:
  /// `queries` is what the op's query counter counts (a batch's size).
  explicit QueryScope(const Op& op, int64_t queries = 1)
      : QueryScope(op, QueryContext{AllocateQueryId(), op.tag}, queries) {}

  /// Adopts `context`, whose id the caller allocated (a batch member).
  QueryScope(const Op& op, const QueryContext& context, int64_t queries = 1)
      : op_(op), context_(context), span_(op.span) {
    if (op.queries != nullptr) op.queries->Increment(queries);
  }

  /// The one finish point: the FlightRecord built from `stats` feeds the
  /// funnel counters, stage histograms, latency window, query log (when
  /// ShouldLog, plus the op's keys from `extra`) and flight recorder.
  template <typename Param, typename Extra>
  void Finish(Param param, const QueryStats& stats, const FilterIndex* filter,
              Extra&& extra) const {
    if constexpr (kMetricsEnabled) {
      FlightRecord rec;
      rec.query_id = context_.query_id();
      rec.ts_micros = UnixMicros();
      rec.param = SaturatingFloor<int64_t>(static_cast<double>(param), 0);
      rec.database_size = stats.database_size;
      rec.candidates = stats.candidates;
      rec.results = stats.results;
      rec.filter_micros = static_cast<int64_t>(stats.filter_seconds * 1e6);
      rec.refine_micros = static_cast<int64_t>(stats.refine_seconds * 1e6);
      rec.total_micros = static_cast<int64_t>(stats.TotalSeconds() * 1e6);
      rec.ted_cells = stats.ted_cells;
      rec.op = op_.tag;
      rec.slow = StructuredLog::Global().IsSlow(rec.total_micros);

      const auto add = [](Counter* counter, int64_t value) {
        if (counter != nullptr) counter->Increment(value);
      };
      const auto record = [](Histogram* histogram, int64_t value) {
        if (histogram != nullptr) histogram->Record(value);
      };
      add(op_.candidates, rec.candidates);
      add(op_.results, rec.results);
      add(op_.pairs_considered, rec.database_size);
      add(op_.bounds_computed, filter == nullptr ? 0 : rec.database_size);
      record(op_.per_query, rec.candidates);
      record(op_.filter_micros, rec.filter_micros);
      record(op_.refine_micros, rec.refine_micros);
      op_.window->Record(rec.total_micros);

      StructuredLog& qlog = StructuredLog::Global();
      if (qlog.ShouldLog(rec.total_micros)) {
        JsonObject line;
        line.Str("event", rec.op)
            .Str("filter", filter == nullptr ? "Sequential" : filter->name());
        const bool knn = op_.kind == OpKind::kKnn || op_.kind == OpKind::kBatch;
        AppendValue(line, knn ? "k" : "tau", param);
        for (const FlightField& f : kFlightFields) {
          line.Int(f.key, rec.*f.member);
        }
        line.Bool("slow", rec.slow);
        extra(line);
        qlog.Write(line);
      }
      FlightRecorder::Global().Record(rec);
    }
  }

 private:
  const Op& op_;
  const ScopedQueryContext context_;
  const TraceSpan span_;
};

/// The database probed and its filter (null means the sequential scan).
struct Engine {
  /// `indexed` is db.size() when the filter was built; a tree added since
  /// would send the filter past its arrays.
  Engine(const TreeDatabase& db, const FilterIndex* filter, int indexed)
      : db(db), filter(filter) {
    TREESIM_CHECK_EQ(db.size(), indexed) << "database grew after indexing";
  }

  const TreeDatabase& db;
  const FilterIndex* filter;

  /// The query's filter state; null without a filter.
  std::unique_ptr<FilterQueryContext> Prepare(const Tree& query) const {
    return filter == nullptr ? nullptr : filter->PrepareQuery(query);
  }

  /// One range probe (Section 4's range variant) of `query`, with `view` as
  /// its TED view: candidates among ids [first, db.size()) at tau / scale
  /// unit operations (the most a tree within tau can need; every id without
  /// a filter), each then verified at tau. Returns the (id, distance) pairs
  /// within tau, in id order; a clamped d > tau fails that test just as the
  /// full distance would. Fills `stats` but for results.
  template <typename Costs>
  std::vector<std::pair<int, typename Costs::Distance>> Probe(
      const Op& op, const Costs& costs, const Tree& query, const TedTree& view,
      typename Costs::Distance tau, int first, QueryStats& stats) const {
    using Distance = typename Costs::Distance;
    const double unit_tau = tau / costs.scale;
    std::unique_ptr<FilterQueryContext> ctx;  // outlives the DCHECK below
    std::vector<int> candidates;
    Stopwatch filter_timer;
    {
      const TraceSpan span(op.filter_span);
      ctx = Prepare(query);
      candidates.reserve(static_cast<size_t>(db.size() - first));
      for (int id = first; id < db.size(); ++id) {
        if (filter == nullptr || filter->MayQualify(*ctx, id, unit_tau)) {
          candidates.push_back(id);
        }
      }
    }
    stats.filter_seconds = filter_timer.ElapsedSeconds();
    stats.database_size = db.size() - first;
    stats.candidates = static_cast<int64_t>(candidates.size());
    Stopwatch refine_timer;
    const TraceSpan span(op.refine_span);
    std::vector<std::pair<int, Distance>> matches;
    for (const int id : candidates) {
      const Distance d = costs.Verify(view, db.ted_view(id), tau, stats);
#ifndef NDEBUG
      // Theorem 3.2/3.3 as a machine-checked invariant, scaled into the cost
      // model (the slack absorbs its rounding). Valid with the bounded
      // verifier too: a candidate's bound is <= tau < a clamped d.
      if (ctx != nullptr) {
        TREESIM_DCHECK_LE(costs.scale * filter->LowerBound(*ctx, id),
                          static_cast<double>(d) + 1e-9)
            << "unsound lower bound from filter " << filter->name()
            << " on tree " << id;
      }
#endif
      if (d <= tau) matches.emplace_back(id, d);
    }
    stats.refine_seconds = refine_timer.ElapsedSeconds();
    return matches;
  }
};

}  // namespace treesim::pipeline

#endif  // TREESIM_SEARCH_PIPELINE_INTERNAL_H_
