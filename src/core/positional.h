#ifndef TREESIM_CORE_POSITIONAL_H_
#define TREESIM_CORE_POSITIONAL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/branch_profile.h"

namespace treesim {

/// Maximum one-to-one matching between ascending sequences `xs` and `ys`
/// allowing pairs with |x - y| <= pr. Greedy two-pointer sweep; optimal for
/// the 1-D problem. O(|xs| + |ys|).
int MaxMatching1D(const std::vector<int>& xs, const std::vector<int>& ys,
                  int pr);

/// Exact maximum bipartite matching between occurrence lists `a` and `b`
/// (each (pre, post)), edges where both coordinates differ by <= pr.
int MaxMatchingExact(const std::vector<std::pair<int, int>>& a,
                     const std::vector<std::pair<int, int>>& b, int pr);

/// |M'max(T1, T2, BiB, pr)| for one shared branch (Section 4.2): the size
/// of the largest one-to-one pairing of the branch's occurrences in `a` and
/// `b` whose preorder AND postorder positions both differ by at most pr.
/// One rule computes it:
///   - Kuhn's exact matching (MaxMatchingExact) when the occurrence grid is
///     at most 64x64, by far the common case (most branches occur once or
///     twice per tree);
///   - otherwise the minimum of the preorder and the postorder 1-D
///     matchings (MaxMatching1D, Section 4.4's linear-time evaluation),
///     with the postorders sorted locally.
/// Either half is sound: the pairing the optimal edit mapping induces
/// satisfies both constraints (Propositions 4.1/4.2), so it is a matching
/// of the 2-D problem and of each 1-D relaxation, and the computed size is
/// never below it. The relaxation can only weaken PosBDist, never break it.
int MaxPositionalMatching(const BranchEntry& a, const BranchEntry& b, int pr);

/// The positional binary branch distance PosBDist(T1, T2, pr) of
/// Definition 6. Non-increasing in pr; equals BDist at
/// pr >= max(|T1|, |T2|) - 1. Requires a.q == b.q.
int64_t PositionalBranchDistance(const BranchProfile& a,
                                 const BranchProfile& b, int pr);

/// The optimistic lower bound `propt` of EDist(T1, T2) found by the
/// SearchLBound binary search of Algorithm 2: the smallest pr in
/// [ ||T1|-|T2||, max(|T1|,|T2|) ] with PosBDist(pr) <= factor * pr, where
/// factor = 4(q-1)+1. Guarantees
///   propt >= ceil(BDist / factor)  and  propt >= ||T1| - |T2||.
/// Section 4.4 evaluates it in O((|T1|+|T2|) log min(|T1|,|T2|)) with the
/// 1-D matchings; the exact search on grids of at most 64x64 keeps that
/// bound with a larger constant.
int OptimisticBound(const BranchProfile& a, const BranchProfile& b);

/// Range-query filter test of Section 4.3: returns false when the candidate
/// can be pruned, i.e. when PosBDist(T1, T2, tau) > factor * tau, which by
/// Proposition 4.2 implies EDist > tau. Equivalent to `propt <= tau` but
/// needs a single PosBDist evaluation instead of a binary search.
bool RangeFilterPasses(const BranchProfile& a, const BranchProfile& b,
                       int tau);

}  // namespace treesim

#endif  // TREESIM_CORE_POSITIONAL_H_
