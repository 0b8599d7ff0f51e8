#include "search/clustering.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <unordered_map>

#include "core/branch_profile.h"
#include "core/positional.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/safe_math.h"

namespace treesim {
namespace {

/// Lloyd-style passes after which KMedoids stops even if assignments still
/// move.
constexpr int kMaxIterations = 20;

/// Pairwise distance access with optional lower-bound pruning. EDist(i, j)
/// is computed lazily and cached (the medoid-update step revisits pairs).
class DistanceOracle {
 public:
  DistanceOracle(const TreeDatabase& db, const KMedoidsOptions& options)
      : db_(db), use_filter_(options.use_filter) {
    if (use_filter_) {
      dict_ = std::make_unique<BranchDictionary>(/*q=*/2);
      profiles_.reserve(static_cast<size_t>(db.size()));
      for (int i = 0; i < db.size(); ++i) {
        profiles_.push_back(BranchProfile::FromTree(db.tree(i), *dict_));
      }
    }
  }

  /// Exact distance (cached).
  int Distance(int i, int j) {
    if (i == j) return 0;
    if (i > j) std::swap(i, j);
    const int64_t key =
        static_cast<int64_t>(i) * db_.size() + j;
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    const int d = TreeEditDistance(db_.ted_view(i), db_.ted_view(j));
    ++edit_distance_calls_;
    cache_.emplace(key, d);
    return d;
  }

  /// A cheap lower bound of Distance(i, j) (0 when filtering is off).
  int LowerBound(int i, int j) {
    if (!use_filter_ || i == j) return 0;
    return OptimisticBound(profiles_[static_cast<size_t>(i)],
                           profiles_[static_cast<size_t>(j)]);
  }

  void CountPruned() { ++pruned_; }
  int64_t edit_distance_calls() const { return edit_distance_calls_; }
  int64_t pruned() const { return pruned_; }

 private:
  const TreeDatabase& db_;
  bool use_filter_;
  std::unique_ptr<BranchDictionary> dict_;
  std::vector<BranchProfile> profiles_;
  std::unordered_map<int64_t, int> cache_;
  int64_t edit_distance_calls_ = 0;
  int64_t pruned_ = 0;
};

}  // namespace

ClusteringResult KMedoids(const TreeDatabase& db,
                          const KMedoidsOptions& options, Rng& rng) {
  TREESIM_CHECK_GE(options.k, 1);
  TREESIM_CHECK_LE(options.k, db.size());

  ClusteringResult result;
  DistanceOracle oracle(db, options);

  // k-means++-style seeding: D^2 weighting over the current nearest-seed
  // distances.
  result.medoids.push_back(
      static_cast<int>(rng.UniformIndex(static_cast<size_t>(db.size()))));
  std::vector<int64_t> nearest(static_cast<size_t>(db.size()));
  while (static_cast<int>(result.medoids.size()) < options.k) {
    int64_t total = 0;
    for (int t = 0; t < db.size(); ++t) {
      int best = oracle.Distance(t, result.medoids[0]);
      for (size_t m = 1; m < result.medoids.size(); ++m) {
        best = std::min(best, oracle.Distance(t, result.medoids[m]));
      }
      nearest[static_cast<size_t>(t)] = CheckedMul<int64_t>(best, best);
      total = CheckedAdd(total, nearest[static_cast<size_t>(t)]);
    }
    int chosen;
    if (total == 0) {
      // All trees coincide with a medoid; fall back to the first unchosen
      // id for determinism.
      chosen = 0;
      while (std::find(result.medoids.begin(), result.medoids.end(),
                       chosen) != result.medoids.end()) {
        ++chosen;
      }
    } else {
      int64_t target = static_cast<int64_t>(rng.UniformReal() *
                                            static_cast<double>(total));
      chosen = db.size() - 1;
      for (int t = 0; t < db.size(); ++t) {
        target -= nearest[static_cast<size_t>(t)];
        if (target < 0) {
          chosen = t;
          break;
        }
      }
    }
    result.medoids.push_back(chosen);
  }
  result.assignment.assign(static_cast<size_t>(db.size()), 0);

  for (int iter = 0; iter < kMaxIterations; ++iter) {
    ++result.iterations;
    // Assignment step: nearest medoid per tree, pruning medoids whose lower
    // bound cannot beat the best distance found so far.
    bool changed = false;
    result.total_cost = 0;
    for (int t = 0; t < db.size(); ++t) {
      int best_cluster = result.assignment[static_cast<size_t>(t)];
      // Seed with the current medoid so bounds have something to beat.
      int best = oracle.Distance(t, result.medoids[
          static_cast<size_t>(best_cluster)]);
      for (int c = 0; c < options.k; ++c) {
        if (c == result.assignment[static_cast<size_t>(t)]) continue;
        const int medoid = result.medoids[static_cast<size_t>(c)];
        if (oracle.LowerBound(t, medoid) >= best && best >= 0) {
          oracle.CountPruned();
          continue;
        }
        const int d = oracle.Distance(t, medoid);
        if (d < best || (d == best && c < best_cluster)) {
          best = d;
          best_cluster = c;
        }
      }
      if (best_cluster != result.assignment[static_cast<size_t>(t)]) {
        result.assignment[static_cast<size_t>(t)] = best_cluster;
        changed = true;
      }
      result.total_cost = CheckedAdd<int64_t>(result.total_cost, best);
    }

    // Update step: each cluster re-centers on the member with the minimum
    // total distance to the rest of the cluster.
    bool medoid_moved = false;
    for (int c = 0; c < options.k; ++c) {
      std::vector<int> members;
      for (int t = 0; t < db.size(); ++t) {
        if (result.assignment[static_cast<size_t>(t)] == c) {
          members.push_back(t);
        }
      }
      if (members.empty()) continue;  // keep the old medoid
      int best_medoid = result.medoids[static_cast<size_t>(c)];
      int64_t best_total = std::numeric_limits<int64_t>::max();
      for (const int candidate : members) {
        int64_t total = 0;
        for (const int other : members) {
          total = CheckedAdd<int64_t>(total, oracle.Distance(candidate, other));
          if (total >= best_total) break;  // cannot win anymore
        }
        if (total < best_total ||
            (total == best_total && candidate < best_medoid)) {
          best_total = total;
          best_medoid = candidate;
        }
      }
      if (best_medoid != result.medoids[static_cast<size_t>(c)]) {
        result.medoids[static_cast<size_t>(c)] = best_medoid;
        medoid_moved = true;
      }
    }

    if (!changed && !medoid_moved) break;
  }

  result.edit_distance_calls = oracle.edit_distance_calls();
  result.pruned_by_filter = oracle.pruned();
  return result;
}

}  // namespace treesim
