#ifndef TREESIM_SEARCH_QUERY_STATS_H_
#define TREESIM_SEARCH_QUERY_STATS_H_

#include <cstdint>

#include "util/safe_math.h"

namespace treesim {

/// Per-query accounting, matching the measures reported in Section 5: the
/// fraction of the database whose exact edit distance had to be evaluated
/// ("% of accessed data" = true positives + false positives of the filter),
/// and the CPU split between filtering and refinement.
struct QueryStats {
  /// Database size the query ran against.
  int64_t database_size = 0;
  /// Trees handed to exact verification: the filter's survivors for range
  /// queries and joins, the trees the bound-ordered sweep verified before
  /// its early break for k-NN. Always equal to edit_distance_calls.
  int64_t candidates = 0;
  /// Trees in the final result.
  int64_t results = 0;
  /// Threshold-bounded edit distance computations, one per candidate
  /// (range and join copy it from `candidates`, k-NN the other way).
  int64_t edit_distance_calls = 0;
  /// Forest-matrix cells those computations filled in the banded kernel
  /// (ted/bounded_ted.h; full-width calls add none). Exact however many
  /// queries overlap: each query counts its own calls on its one thread.
  int64_t ted_cells = 0;
  /// Wall-clock seconds spent computing lower bounds (filter step).
  double filter_seconds = 0.0;
  /// Wall-clock seconds spent on exact distances (refinement step).
  double refine_seconds = 0.0;

  /// The paper's "% of accessed data" (in [0, 1]).
  double AccessedFraction() const {
    return database_size == 0
               ? 0.0
               : static_cast<double>(edit_distance_calls) /
                     static_cast<double>(database_size);
  }

  double TotalSeconds() const { return filter_seconds + refine_seconds; }

  /// Accumulates another query's stats (for averaging over query workloads).
  QueryStats& operator+=(const QueryStats& other) {
    database_size = CheckedAdd(database_size, other.database_size);
    candidates = CheckedAdd(candidates, other.candidates);
    results = CheckedAdd(results, other.results);
    edit_distance_calls =
        CheckedAdd(edit_distance_calls, other.edit_distance_calls);
    ted_cells = CheckedAdd(ted_cells, other.ted_cells);
    filter_seconds += other.filter_seconds;
    refine_seconds += other.refine_seconds;
    return *this;
  }
};

}  // namespace treesim

#endif  // TREESIM_SEARCH_QUERY_STATS_H_
