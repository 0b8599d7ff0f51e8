#ifndef TREESIM_TED_ZHANG_SHASHA_H_
#define TREESIM_TED_ZHANG_SHASHA_H_

#include <cstdint>
#include <vector>

#include "ted/cost_model.h"
#include "tree/tree.h"

namespace treesim {

/// Postorder view of a tree precomputed for the Zhang–Shasha dynamic
/// program [Zhang & Shasha, SIAM J. Comput. 1989] — the reference exact
/// tree edit distance the paper's filters refine against (reference [23]).
/// Every distance routine runs the one leftmost-path decomposition over it.
///
/// Precompute once per database tree and reuse across queries: building the
/// view is O(|T|), while each distance computation is
/// O(|T1||T2| * min(depth,leaves)^2) in the worst case.
struct TedTree {
  /// Node labels in postorder (0-based).
  std::vector<LabelId> labels;
  /// lml[i] = postorder index of the leftmost leaf of the subtree rooted at
  /// postorder node i.
  std::vector<int> lml;
  /// Keyroots in ascending postorder index: nodes that have a left sibling,
  /// plus the root (the LR_keyroots set of the original algorithm).
  std::vector<int> keyroots;
  /// Total DP work of the keyroot decomposition: sum over keyroots k of
  /// (k - lml[k] + 1). The product of two trees' weights is the cell count
  /// of the full-width kernel, from which the bounded verifier derives the
  /// cells its band pruned.
  int64_t keyroot_weight = 0;

  int size() const { return static_cast<int>(labels.size()); }

  /// Builds the view. `t` must be non-empty.
  static TedTree FromTree(const Tree& t);
};

/// Exact unit-cost tree edit distance (the paper's EDist). Integer-valued.
int TreeEditDistance(const TedTree& t1, const TedTree& t2);

/// The full subtree-pair distance matrix of the Zhang–Shasha program:
/// entry [i * |T2| + j] is the unit-cost distance between the subtrees
/// rooted at postorder node i of T1 and postorder node j of T2. The overall
/// distance sits in the last entry. Used by edit-mapping backtracking.
std::vector<int> TreeDistanceMatrix(const TedTree& t1, const TedTree& t2);

/// Convenience overload; builds both views internally.
int TreeEditDistance(const Tree& t1, const Tree& t2);

/// Exact tree edit distance under an arbitrary cost model.
double TreeEditDistanceWeighted(const TedTree& t1, const TedTree& t2,
                                const CostModel& costs);

}  // namespace treesim

#endif  // TREESIM_TED_ZHANG_SHASHA_H_
