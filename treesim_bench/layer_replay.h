#ifndef TREESIM_BENCH_LAYER_REPLAY_H_
#define TREESIM_BENCH_LAYER_REPLAY_H_

// Layer-by-layer replay for treesim_bench's traced run (--trace=FILE).
//
// The engine call of a query is timed as one span. The same query is then
// replayed at threads=1 through the public calls the engine makes, one
// span per stage:
//
//   filters.prepare     FilterIndex::PrepareQuery
//   filters.range_scan  MayQualify over every tree (range, weighted, join)
//   filters.knn_bounds  LowerBound over every tree (k-NN)
//   search.order        ascending (bound, id) sort of the k-NN sweep
//   ted.query_view      TedTree::FromTree of the query
//   ted.refine          the BoundedTreeEditDistance[Weighted] loop; for
//                       k-NN the Algorithm-2 sweep with its kth-best
//                       threshold
//   search.merge        the final (distance, id) ordering
//
// Registry counters are read around the stages that move them. The
// replay's answer must equal the engine's. All of the benchmark's
// knowledge of the engine's internal pipeline lives in this file, so an
// interface change of the filter or refine layer edits only this file.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "filters/filter_index.h"
#include "search/tree_database.h"
#include "ted/bounded_ted.h"
#include "ted/cost_model.h"
#include "ted/zhang_shasha.h"
#include "util/metrics.h"

namespace treesim {
namespace bench {

/// One query's answer as (tree id, distance) pairs, in the engine's order.
using Answer = std::vector<std::pair<int, double>>;

/// In-memory span store, written as a chrome-trace file at exit.
class SpanLog {
 public:
  /// Chrome-trace thread lanes: engine calls and their replays are
  /// sequential in time, so they get separate lanes to nest cleanly.
  static constexpr int kEngineLane = 1;
  static constexpr int kReplayLane = 2;

  /// Opens a span and returns its id (ids are dense from 1).
  int64_t Open(const char* name, int64_t parent, int64_t query_id, int lane) {
    spans_.push_back({name, parent, query_id, lane, NowNs(), -1, 0});
    return static_cast<int64_t>(spans_.size());
  }

  /// Closes span `id`, recording how many calls it made; returns its
  /// duration in nanoseconds.
  int64_t Close(int64_t id, int64_t calls) {
    Span& s = spans_[static_cast<size_t>(id - 1)];
    s.duration_ns = NowNs() - s.start_ns;
    s.calls = calls;
    return s.duration_ns;
  }

  /// Writes every span as a chrome://tracing "X" (complete) event.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[\n", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span_id\":%zu,"
                   "\"parent\":%lld,\"query_id\":%lld,\"calls\":%lld}}\n",
                   i == 0 ? "" : ",", s.name, s.lane, s.start_ns / 1e3,
                   s.duration_ns / 1e3, i + 1,
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.query_id),
                   static_cast<long long>(s.calls));
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    int64_t parent;
    int64_t query_id;
    int lane;
    int64_t start_ns;
    int64_t duration_ns;
    int64_t calls;
  };

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
};

/// Stage times (ns) and counts summed over every replayed query.
struct LayerTotals {
  int64_t queries = 0;
  int64_t prepare_ns = 0;
  int64_t range_scan_ns = 0;
  int64_t range_trees = 0;
  int64_t range_candidates = 0;
  int64_t range_matches = 0;
  int64_t knn_bounds_ns = 0;
  int64_t knn_trees = 0;
  int64_t knn_refined = 0;
  int64_t order_ns = 0;
  int64_t view_ns = 0;
  int64_t views = 0;
  int64_t refine_ns = 0;
  int64_t refine_calls = 0;
  int64_t merge_ns = 0;
  // Registry counter deltas over the replayed stages.
  int64_t searchlbound_calls = 0;
  int64_t bounded_calls = 0;
  int64_t cells_computed = 0;
  int64_t cells_pruned = 0;
  int64_t unbounded_calls = 0;

  int64_t FilterNs() const {
    return prepare_ns + range_scan_ns + knn_bounds_ns;
  }
  int64_t TedNs() const { return view_ns + refine_ns; }
  int64_t StageNs() const {
    return FilterNs() + TedNs() + order_ns + merge_ns;
  }
};

/// Replays queries through one built filter over one database, adding
/// spans to `log` and sums to `totals`.
class LayerReplay {
 public:
  LayerReplay(FilterIndex* filter, const TreeDatabase* db, SpanLog* log,
              LayerTotals* totals)
      : filter_(filter), db_(db), log_(log), totals_(totals) {}

  /// SimilaritySearch::Range (unit cost).
  Answer Range(const Tree& query, int tau, int64_t query_id,
               int64_t parent) {
    const std::unique_ptr<FilterQueryContext> ctx =
        Prepare(query, query_id, parent);
    const std::vector<int> candidates = Scan(*ctx, tau, query_id, parent);
    const TedTree view = View(query, query_id, parent);
    Answer out = RefineWithin(
        candidates, tau,
        [&](const TedTree& t) { return BoundedTreeEditDistance(view, t, tau); },
        query_id, parent);
    Merge(out, query_id, parent);
    return out;
  }

  /// SimilaritySearch::RangeWeighted: the unit filter at tau / c_min.
  Answer RangeWeighted(const Tree& query, double tau, const CostModel& costs,
                       int64_t query_id, int64_t parent) {
    const std::unique_ptr<FilterQueryContext> ctx =
        Prepare(query, query_id, parent);
    const std::vector<int> candidates =
        Scan(*ctx, tau / costs.MinOperationCost(), query_id, parent);
    const TedTree view = View(query, query_id, parent);
    Answer out = RefineWithin(
        candidates, tau,
        [&](const TedTree& t) {
          return BoundedTreeEditDistanceWeighted(view, t, tau, costs);
        },
        query_id, parent);
    Merge(out, query_id, parent);
    return out;
  }

  /// SimilaritySearch::Knn at threads=1: every lower bound, the ascending
  /// (bound, id) order, then the Algorithm-2 sweep verifying each tree
  /// against the current kth-best distance. While the heap fills,
  /// verification is unbounded.
  Answer Knn(const Tree& query, int k, int64_t query_id, int64_t parent) {
    const std::unique_ptr<FilterQueryContext> ctx =
        Prepare(query, query_id, parent);
    const int n = db_->size();
    std::vector<double> bounds(static_cast<size_t>(n), 0.0);
    {
      const CounterMark mark(this);
      const int64_t span = Open("filters.knn_bounds", parent, query_id);
      for (int id = 0; id < n; ++id) {
        bounds[static_cast<size_t>(id)] = filter_->LowerBound(*ctx, id);
      }
      totals_->knn_bounds_ns += log_->Close(span, n);
      totals_->knn_trees += n;
    }
    std::vector<int> order(static_cast<size_t>(n));
    {
      const int64_t span = Open("search.order", parent, query_id);
      for (int id = 0; id < n; ++id) order[static_cast<size_t>(id)] = id;
      std::sort(order.begin(), order.end(), [&bounds](int a, int b) {
        const double ba = bounds[static_cast<size_t>(a)];
        const double bb = bounds[static_cast<size_t>(b)];
        return ba != bb ? ba < bb : a < b;
      });
      totals_->order_ns += log_->Close(span, n);
    }
    const TedTree view = View(query, query_id, parent);
    std::priority_queue<std::pair<int, int>> heap;  // (distance, id)
    {
      const CounterMark mark(this);
      const int64_t span = Open("ted.refine", parent, query_id);
      int64_t calls = 0;
      for (const int id : order) {
        const bool full = static_cast<int>(heap.size()) == k;
        if (full && bounds[static_cast<size_t>(id)] > heap.top().first) {
          break;
        }
        const int tau_b =
            full ? heap.top().first : std::numeric_limits<int>::max();
        const int d = BoundedTreeEditDistance(view, db_->ted_view(id), tau_b);
        ++calls;
        if (!full) {
          heap.emplace(d, id);
        } else if (std::make_pair(d, id) < heap.top()) {
          heap.pop();
          heap.emplace(d, id);
        }
      }
      totals_->refine_ns += log_->Close(span, calls);
      totals_->refine_calls += calls;
      totals_->knn_refined += calls;
    }
    Answer out(heap.size());
    {
      const int64_t span = Open("search.merge", parent, query_id);
      for (size_t i = heap.size(); i-- > 0;) {
        out[i] = {heap.top().second, heap.top().first};
        heap.pop();
      }
      totals_->merge_ns += log_->Close(span, Count(out));
    }
    return out;
  }

  /// One left tree's probe of SimilarityJoin::Join: prepare, MayQualify
  /// over the right side, bounded refine against the left side's stored
  /// view. Pairs come out ascending by right id, as the join emits them.
  Answer JoinProbe(const TreeDatabase& left, int l, int tau,
                   int64_t query_id, int64_t parent) {
    const std::unique_ptr<FilterQueryContext> ctx =
        Prepare(left.tree(l), query_id, parent);
    const std::vector<int> candidates = Scan(*ctx, tau, query_id, parent);
    return RefineWithin(
        candidates, tau,
        [&](const TedTree& t) {
          return BoundedTreeEditDistance(left.ted_view(l), t, tau);
        },
        query_id, parent);
  }

 private:
  struct Counters {
    int64_t searchlbound = 0;
    int64_t bounded = 0;
    int64_t computed = 0;
    int64_t pruned = 0;
    int64_t unbounded = 0;
  };

  /// Adds the registry-counter deltas over its lifetime to the totals.
  class CounterMark {
   public:
    explicit CounterMark(LayerReplay* owner)
        : owner_(owner), before_(owner->ReadCounters()) {}
    ~CounterMark() {
      const Counters after = owner_->ReadCounters();
      LayerTotals& t = *owner_->totals_;
      t.searchlbound_calls += after.searchlbound - before_.searchlbound;
      t.bounded_calls += after.bounded - before_.bounded;
      t.cells_computed += after.computed - before_.computed;
      t.cells_pruned += after.pruned - before_.pruned;
      t.unbounded_calls += after.unbounded - before_.unbounded;
    }
    CounterMark(const CounterMark&) = delete;
    CounterMark& operator=(const CounterMark&) = delete;

   private:
    LayerReplay* owner_;
    Counters before_;
  };

  Counters ReadCounters() const {
    static Counter& searchlbound = MetricsRegistry::Global().GetCounter(
        "positional.searchlbound_calls");
    static Counter& bounded =
        MetricsRegistry::Global().GetCounter("ted.bounded_calls");
    static Counter& bounded_weighted =
        MetricsRegistry::Global().GetCounter("ted.bounded_weighted_calls");
    static Counter& computed =
        MetricsRegistry::Global().GetCounter("ted.bounded_cells_computed");
    static Counter& pruned =
        MetricsRegistry::Global().GetCounter("ted.bounded_cells_band_pruned");
    static Counter& zs =
        MetricsRegistry::Global().GetCounter("ted.zhang_shasha_calls");
    static Counter& zs_weighted = MetricsRegistry::Global().GetCounter(
        "ted.zhang_shasha_weighted_calls");
    return {searchlbound.value(), bounded.value() + bounded_weighted.value(),
            computed.value(), pruned.value(),
            zs.value() + zs_weighted.value()};
  }

  template <typename C>
  static int64_t Count(const C& c) {
    return static_cast<int64_t>(c.size());
  }

  int64_t Open(const char* name, int64_t parent, int64_t query_id) {
    return log_->Open(name, parent, query_id, SpanLog::kReplayLane);
  }

  std::unique_ptr<FilterQueryContext> Prepare(const Tree& query,
                                              int64_t query_id,
                                              int64_t parent) {
    const int64_t span = Open("filters.prepare", parent, query_id);
    std::unique_ptr<FilterQueryContext> ctx = filter_->PrepareQuery(query);
    totals_->prepare_ns += log_->Close(span, 1);
    ++totals_->queries;
    return ctx;
  }

  std::vector<int> Scan(const FilterQueryContext& ctx, double tau,
                        int64_t query_id, int64_t parent) {
    const int n = db_->size();
    std::vector<int> candidates;
    candidates.reserve(static_cast<size_t>(n));
    const int64_t span = Open("filters.range_scan", parent, query_id);
    for (int id = 0; id < n; ++id) {
      if (filter_->MayQualify(ctx, id, tau)) candidates.push_back(id);
    }
    totals_->range_scan_ns += log_->Close(span, n);
    totals_->range_trees += n;
    totals_->range_candidates += Count(candidates);
    return candidates;
  }

  /// Verifies every candidate, keeping those within tau in candidate
  /// order.
  template <typename Distance>
  Answer RefineWithin(const std::vector<int>& candidates, double tau,
                      const Distance& distance, int64_t query_id,
                      int64_t parent) {
    const CounterMark mark(this);
    const int64_t span = Open("ted.refine", parent, query_id);
    Answer out;
    for (const int id : candidates) {
      const double d = distance(db_->ted_view(id));
      if (d <= tau) out.emplace_back(id, d);
    }
    totals_->refine_ns += log_->Close(span, Count(candidates));
    totals_->refine_calls += Count(candidates);
    totals_->range_matches += Count(out);
    return out;
  }

  TedTree View(const Tree& query, int64_t query_id, int64_t parent) {
    const int64_t span = Open("ted.query_view", parent, query_id);
    TedTree view = TedTree::FromTree(query);
    totals_->view_ns += log_->Close(span, 1);
    ++totals_->views;
    return view;
  }

  void Merge(Answer& out, int64_t query_id, int64_t parent) {
    const int64_t span = Open("search.merge", parent, query_id);
    std::sort(out.begin(), out.end(),
              [](const std::pair<int, double>& a,
                 const std::pair<int, double>& b) {
                return a.second != b.second ? a.second < b.second
                                            : a.first < b.first;
              });
    totals_->merge_ns += log_->Close(span, Count(out));
  }

  FilterIndex* filter_;
  const TreeDatabase* db_;
  SpanLog* log_;
  LayerTotals* totals_;
};

/// One per-layer metric of the traced run.
struct LayerMetric {
  const char* name;
  double value;
  const char* unit;
};

/// Inputs to the per-layer metrics besides the replay totals.
struct LayerContext {
  double db_build_s = 0;      // median TreeDatabase::AddAll
  double index_build_s = 0;   // median BiBranchFilter::Build
  int64_t engine_ns = 0;      // engine-call wall time over the replayed calls
  double engine_p50_ms = 0;   // median engine call in the traced pass
  int64_t branch_growth = 0;  // branch-dictionary entries added by queries
  int64_t distinct_queries = 0;
  int workers = 1;
};

/// The per-layer metrics, in BENCHMARK.json order.
inline std::vector<LayerMetric> ComputeLayerMetrics(const LayerTotals& t,
                                                    const LayerContext& c) {
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const double q = static_cast<double>(t.queries);
  const double capacity_ns =
      static_cast<double>(c.engine_ns) * static_cast<double>(c.workers);
  return {
      {"search.db_build_s", c.db_build_s, "s"},
      {"filters.index_build_s", c.index_build_s, "s"},
      {"filters.prepare_us", ratio(t.prepare_ns / 1e3, q), "us/query"},
      {"filters.range_ns_per_tree",
       ratio(static_cast<double>(t.range_scan_ns), t.range_trees), "ns/tree"},
      {"filters.knn_ns_per_tree",
       ratio(static_cast<double>(t.knn_bounds_ns), t.knn_trees), "ns/tree"},
      {"filters.pass_frac", ratio(t.range_candidates, t.range_trees),
       "fraction"},
      {"filters.precision", ratio(t.range_matches, t.range_candidates),
       "fraction"},
      {"filters.branch_dict_growth",
       ratio(1000.0 * static_cast<double>(c.branch_growth),
             c.distinct_queries),
       "entries/1000q"},
      {"core.searchlbound_calls", ratio(t.searchlbound_calls, q),
       "calls/query"},
      {"ted.query_view_us", ratio(t.view_ns / 1e3, t.views), "us/query"},
      {"ted.calls_per_query", ratio(t.refine_calls, q), "calls/query"},
      {"ted.refine_us_per_call", ratio(t.refine_ns / 1e3, t.refine_calls),
       "us/call"},
      {"ted.cells_per_call", ratio(t.cells_computed, t.bounded_calls),
       "cells/call"},
      {"ted.band_pruned_frac",
       ratio(t.cells_pruned, t.cells_computed + t.cells_pruned), "fraction"},
      {"ted.unbounded_frac", ratio(t.unbounded_calls, t.bounded_calls),
       "fraction"},
      {"search.knn_sweep_frac", ratio(t.knn_refined, t.knn_trees),
       "fraction"},
      {"search.overhead_us",
       ratio((capacity_ns - static_cast<double>(t.StageNs())) / 1e3, q),
       "us/query"},
      {"search.traced_p50_ms", c.engine_p50_ms, "ms"},
      {"util.pool_efficiency", ratio(t.StageNs(), capacity_ns), "share"},
      {"util.batch_serial_frac",
       ratio(t.prepare_ns, static_cast<double>(c.engine_ns)), "share"},
      {"filters.share", ratio(t.FilterNs(), capacity_ns), "share"},
      {"ted.share", ratio(t.TedNs(), capacity_ns), "share"},
  };
}

}  // namespace bench
}  // namespace treesim

#endif  // TREESIM_BENCH_LAYER_REPLAY_H_
