#ifndef TREESIM_SEARCH_CLUSTERING_H_
#define TREESIM_SEARCH_CLUSTERING_H_

#include <cstdint>
#include <vector>

#include "search/tree_database.h"
#include "util/random.h"

namespace treesim {

/// Result of a k-medoids clustering run under the tree edit distance.
struct ClusteringResult {
  /// Tree ids of the k medoids.
  std::vector<int> medoids;
  /// Per tree: index into `medoids` of its cluster.
  std::vector<int> assignment;
  /// Sum of EDist(tree, its medoid).
  int64_t total_cost = 0;
  /// Lloyd-style iterations executed (including the final no-change pass).
  int iterations = 0;
  /// Exact edit distance computations performed.
  int64_t edit_distance_calls = 0;
  /// Exact computations skipped thanks to the binary branch lower bound.
  int64_t pruned_by_filter = 0;
};

/// Options for KMedoids.
struct KMedoidsOptions {
  int k = 3;
  /// Use binary branch (q = 2) optimistic bounds to skip exact distances
  /// whose lower bound already exceeds the best assignment so far (the
  /// clustering application from the paper's introduction). Results are
  /// identical with or without; only edit_distance_calls/pruned_by_filter
  /// change.
  bool use_filter = true;
};

/// Clusters the database with the k-medoids (PAM/Lloyd hybrid) scheme:
/// k-means++-style seeding (each next medoid is drawn with probability
/// proportional to the squared distance to the nearest chosen one), then
/// alternate (a) assign every tree to its nearest medoid and (b) re-center
/// each cluster on the member minimizing the total in-cluster distance,
/// until assignments stabilize or 20 iterations have run. Deterministic
/// given `rng`. O(iterations * (k * N + sum |C|^2)) exact distance
/// computations before filter pruning.
ClusteringResult KMedoids(const TreeDatabase& db, const KMedoidsOptions& options,
                          Rng& rng);

}  // namespace treesim

#endif  // TREESIM_SEARCH_CLUSTERING_H_
