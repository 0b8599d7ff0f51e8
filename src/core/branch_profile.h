#ifndef TREESIM_CORE_BRANCH_PROFILE_H_
#define TREESIM_CORE_BRANCH_PROFILE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/binary_branch.h"
#include "tree/tree.h"
#include "util/status.h"

namespace treesim {

/// All occurrences of one distinct branch inside one tree, with positional
/// information (Section 4.2). `occurrences` is sorted by preorder position,
/// so its preorders form the first ascending sequence of Algorithm 1; the
/// rare 1-D matching that needs the postorders ascending sorts them itself
/// (MaxPositionalMatching).
struct BranchEntry {
  BranchId branch = 0;
  /// (preorder, postorder) position pairs, ascending by preorder.
  std::vector<std::pair<int, int>> occurrences;

  int count() const { return static_cast<int>(occurrences.size()); }
};

/// The sparse binary branch vector BRV(T) of Definition 3 plus the
/// positional sequences of Section 4.3 — everything the filters need about
/// one tree. Entries are sorted by branch id; only non-zero dimensions are
/// stored (as in the paper's implementation, Section 5).
struct BranchProfile {
  /// |T|; prmin/prmax of the optimistic bound search derive from it.
  int tree_size = 0;
  /// Branch level q the profile was extracted at.
  int q = 2;
  /// Divisor of the lower bound: 4(q-1)+1.
  int factor = 5;
  /// Non-zero dimensions, ascending by branch id.
  std::vector<BranchEntry> entries;

  /// Total branch occurrences (= tree_size: one branch per node).
  int total_count() const;

  /// Builds the profile of one tree, interning new branches into `dict`.
  /// O(|T| * 2^q + |T| log |T|).
  static BranchProfile FromTree(const Tree& t, BranchDictionary& dict);

  /// Builds a query profile from a frozen `dict`, which it only reads
  /// (LookupBranches): unseen branches share one kUnseenBranch entry. Meant
  /// to be compared only against profiles of trees `dict` interned; between
  /// two such profiles unseen branches merge, which can only lower a bound.
  static BranchProfile FromQuery(const Tree& t, const BranchDictionary& dict);

  /// Builds the profile of a tree of `tree_size` nodes from its branch
  /// occurrences (any order), as extracted against `dict`: sorts them by
  /// (branch, preorder) and run-length encodes them. The one builder of
  /// query and database profiles alike. O(|T| log |T|).
  static BranchProfile FromOccurrences(
      int tree_size, const BranchDictionary& dict,
      std::vector<BranchOccurrence> occurrences);

  /// Verifies the sparse-vector invariants the filters rely on: q/factor
  /// agree with Theorem 3.3, entries strictly ascending by branch id with
  /// positive counts, occurrences ascending by preorder, all positions in
  /// [1, tree_size], and total occurrences == tree_size (one branch per
  /// node, Definition 3). O(total occurrences). Debug builds run this at
  /// the end of FromOccurrences(), i.e. on every profile built.
  Status ValidateInvariants() const;
};

/// The binary branch distance BDist(T1, T2) of Definition 4: the L1 distance
/// of the two (sparse) branch vectors. O(|entries1| + |entries2|).
int64_t BranchDistance(const BranchProfile& a, const BranchProfile& b);

/// The non-positional lower bound of the edit distance from Theorem 3.2/3.3:
/// ceil(BDist / (4(q-1)+1)). Requires a.q == b.q.
int BranchDistanceLowerBound(const BranchProfile& a, const BranchProfile& b);

}  // namespace treesim

#endif  // TREESIM_CORE_BRANCH_PROFILE_H_
