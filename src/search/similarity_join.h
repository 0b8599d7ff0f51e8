#ifndef TREESIM_SEARCH_SIMILARITY_JOIN_H_
#define TREESIM_SEARCH_SIMILARITY_JOIN_H_

#include <memory>
#include <tuple>
#include <vector>

#include "filters/filter_index.h"
#include "search/query_stats.h"
#include "search/tree_database.h"
#include "util/thread_pool.h"

namespace treesim {

/// Result of an approximate (similarity) join: all tree pairs within edit
/// distance tau, with the exact distance. Ascending by (left id, right id).
struct JoinResult {
  /// (left tree id, right tree id, exact distance).
  std::vector<std::tuple<int, int, int>> pairs;
  /// Aggregated over all probes; database_size counts candidate pairs.
  QueryStats stats;
};

/// The approximate-join operation from the paper's introduction ("these
/// problems form the core operation for many database manipulations (e.g.,
/// approximate join, ...)"), built on the filter-and-refine engine: the
/// filter indexes the right side once, every left tree probes it with a
/// range query. Surviving candidate pairs are verified with the
/// threshold-bounded distance (ted/bounded_ted.h) at the join's tau —
/// exact for every emitted pair, and provably "> tau" for every rejected
/// one, so the output is byte-identical to an unbounded refine.
///
/// Joins are const and only read both sides and the built filter, so any
/// number of threads may join against one SimilarityJoin at once.
class SimilarityJoin {
 public:
  /// Builds `filter` over `right` (nullptr = no filtering). Both databases
  /// must outlive this object and share a label dictionary; `right` must
  /// not grow after it is built, which every join checks.
  SimilarityJoin(const TreeDatabase* right,
                 std::unique_ptr<FilterIndex> filter);

  SimilarityJoin(const SimilarityJoin&) = delete;
  SimilarityJoin& operator=(const SimilarityJoin&) = delete;

  /// All (l, r) with EDist(left[l], right[r]) <= tau. One path at every
  /// thread count: each left tree prepares, probes and refines into its own
  /// result slot on one thread, a worker of `pool` when given one and the
  /// caller otherwise; slots merge in left-id order, so `pairs` and every
  /// stat except the timings (ted_cells included) are identical for any
  /// pool size. filter_seconds (preparation and probe) and refine_seconds
  /// sum over the left trees, so with a pool they add up worker time.
  JoinResult Join(const TreeDatabase& left, int tau,
                  ThreadPool* pool = nullptr) const;

  /// Self join of the right-side database: all unordered pairs l < r within
  /// tau (each pair probed once). Same parallel contract as Join().
  JoinResult SelfJoin(int tau, ThreadPool* pool = nullptr) const;

 private:
  JoinResult JoinImpl(const TreeDatabase& left, int tau, bool self,
                      ThreadPool* pool) const;

  const TreeDatabase* right_;
  std::unique_ptr<FilterIndex> filter_;
  int indexed_size_ = 0;  ///< right_->size() when filter_ was built
};

}  // namespace treesim

#endif  // TREESIM_SEARCH_SIMILARITY_JOIN_H_
