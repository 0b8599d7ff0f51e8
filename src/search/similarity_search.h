#ifndef TREESIM_SEARCH_SIMILARITY_SEARCH_H_
#define TREESIM_SEARCH_SIMILARITY_SEARCH_H_

#include <memory>
#include <utility>
#include <vector>

#include "filters/filter_index.h"
#include "search/query_stats.h"
#include "search/tree_database.h"
#include "ted/cost_model.h"
#include "util/thread_pool.h"

namespace treesim {

/// Result of a range query: ids of trees within distance tau of the query,
/// ascending by (distance, id).
struct RangeResult {
  std::vector<std::pair<int, int>> matches;  // (tree id, exact distance)
  QueryStats stats;
};

/// Result of a k-NN query: the k nearest trees, ascending by
/// (distance, id); fewer when the database is smaller than k.
struct KnnResult {
  std::vector<std::pair<int, int>> neighbors;  // (tree id, exact distance)
  QueryStats stats;
};

/// Result of a batch k-NN query: one KnnResult per query tree, in input
/// order, plus the merged accounting.
struct BatchKnnResult {
  std::vector<KnnResult> per_query;
  /// Sum of the per-query stats; with a pool its seconds add up worker time.
  QueryStats combined;
};

/// Weighted-cost variants (general CostModel distances are real-valued).
struct WeightedRangeResult {
  std::vector<std::pair<int, double>> matches;
  QueryStats stats;
};
struct WeightedKnnResult {
  std::vector<std::pair<int, double>> neighbors;
  QueryStats stats;
};

/// The filter-and-refine similarity search engine of Section 4 (Algorithm 2
/// and its range variant), parameterized by any sound FilterIndex. With a
/// null filter it degenerates to the sequential scan used as the timing
/// baseline in Section 5.
///
/// The refine stage uses the threshold-bounded verifier
/// (ted/bounded_ted.h) at the query's tau (range/join) or the current
/// kth-best distance (k-NN): candidates farther than the threshold are
/// rejected without computing their full distance. The bounded verifier is
/// exact for every distance within the threshold, so all results — ids,
/// distances, and orderings — are byte-identical to what the unbounded
/// Zhang–Shasha refine produced; only the refine-stage work changes (see
/// the ted.bounded_* counters).
///
/// Every query member is const and only reads the database and the built
/// filter, so queries never grow the index and any number of threads may
/// query one engine at once. A query runs on the thread that calls it; the
/// one pool parameter, BatchKnn's, runs whole queries on its workers.
/// Answers and counts are the same for any pool size.
class SimilaritySearch {
 public:
  /// Builds `filter` over `db` (pass nullptr for sequential scan). `db`
  /// must outlive this object and must not grow after it is built: every
  /// query checks that its size is still the one the filter indexed.
  SimilaritySearch(const TreeDatabase* db,
                   std::unique_ptr<FilterIndex> filter);

  SimilaritySearch(const SimilaritySearch&) = delete;
  SimilaritySearch& operator=(const SimilaritySearch&) = delete;
  SimilaritySearch(SimilaritySearch&&) = default;
  SimilaritySearch& operator=(SimilaritySearch&&) = default;

  /// All trees with EDist(query, tree) <= tau. Filtering uses
  /// FilterIndex::MayQualify; survivors are verified with exact TED.
  RangeResult Range(const Tree& query, int tau) const;

  /// The k nearest neighbors by exact TED, via the optimal multi-step
  /// strategy (Algorithm 2): lower bounds for every tree, then one
  /// sequential sweep in ascending bound order that verifies each tree at
  /// the k-th best distance so far and breaks at the first bound above it.
  KnnResult Knn(const Tree& query, int k) const;

  /// Batch k-NN: one Knn() per query, the queries fanning out over `pool`
  /// (inline without one), each on one thread. `per_query` is in input
  /// order and equals what Knn() answers for each query, stats included.
  BatchKnnResult BatchKnn(const std::vector<Tree>& queries, int k,
                          ThreadPool* pool = nullptr) const;

  /// Name of the active filter ("Sequential" when none).
  std::string filter_name() const;

  /// Range query under a general cost model — the extension the paper notes
  /// in Section 2.1: every filter bound counts unit operations, and any
  /// weighted-optimal script has at least that many operations, each
  /// costing >= costs.MinOperationCost(), so bounds scale by that constant
  /// and exactness is preserved. costs.MinOperationCost() must be > 0.
  WeightedRangeResult RangeWeighted(const Tree& query, double tau,
                                    const CostModel& costs) const;

  /// k-NN under a general cost model (same scaling argument).
  WeightedKnnResult KnnWeighted(const Tree& query, int k,
                                const CostModel& costs) const;

 private:
  const TreeDatabase* db_;
  std::unique_ptr<FilterIndex> filter_;
  int indexed_size_ = 0;  ///< db_->size() when filter_ was built
};

}  // namespace treesim

#endif  // TREESIM_SEARCH_SIMILARITY_SEARCH_H_
