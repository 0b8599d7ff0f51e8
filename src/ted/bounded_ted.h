#ifndef TREESIM_TED_BOUNDED_TED_H_
#define TREESIM_TED_BOUNDED_TED_H_

#include <cstdint>

#include "ted/cost_model.h"
#include "ted/zhang_shasha.h"
#include "tree/tree.h"

namespace treesim {

/// Threshold-bounded unit-cost tree edit distance — the refine-stage
/// verifier of the filter-and-refine pipeline. The engine never needs the
/// full distance: range queries ask "is EDist <= tau?" and k-NN asks "is
/// EDist < kth-best?", so the verifier may stop as soon as the answer is
/// provably "no".
///
/// Contract (the one the differential/metamorphic/fuzz suites pin):
///   * EDist(t1, t2) <= tau  =>  returns exactly EDist(t1, t2);
///   * EDist(t1, t2) >  tau  =>  returns a value > tau (tau + 1 for
///     tau >= 0; 0 for negative tau, where every distance exceeds tau).
/// Equivalently, for tau >= 0 the result is min(EDist, tau + 1). Callers
/// can therefore keep their existing `d <= tau` / heap-insert logic and
/// get byte-identical results to the unbounded path.
///
/// Internally: the Zhang–Shasha recurrence of ted/zhang_shasha.cc over the
/// |x - y| <= tau diagonal band of every keyroot-pair forest matrix (an
/// out-of-band forest pair needs more than tau unmatched nodes), with an
/// RTED-style choice between the leftmost and the mirrored (rightmost)
/// decomposition, whichever has the smaller keyroot-weight product. The
/// band only sets each row's column range: tau + 1 fills one sentinel cell
/// on each side of it, only the subtree jump read tests it, and the result
/// is clamped once. Every in-band cell is computed (DESIGN.md §16). When
/// the band would exclude less than half of the root forest matrix (wide
/// tau on small trees) the call runs the full-width recurrence and clamps
/// instead — the contract above is unchanged.
///
/// A banded call adds the forest-matrix cells it computed to `*cells`, when
/// given, as it does to the process-wide ted.bounded_cells_computed; early
/// returns and full-width runs add nothing to either.
int BoundedTreeEditDistance(const TedTree& t1, const TedTree& t2, int tau,
                            int64_t* cells = nullptr);

/// Convenience overload; builds both views (including mirrors) internally.
int BoundedTreeEditDistance(const Tree& t1, const Tree& t2, int tau);

/// Threshold-bounded distance under an arbitrary cost model. Same contract
/// as the unit-cost verifier: when the exact weighted distance is <= tau
/// the returned value is bit-identical to TreeEditDistanceWeighted (same
/// additions in the same order); otherwise the result is some value > tau:
/// the banded recurrence's unclamped value, or the exact distance when the
/// call runs the full-width one because the band covers every diagonal or
/// would prune too little to pay for itself.
/// Negative and NaN thresholds reject everything with +infinity. The band
/// is scaled by costs.MinOperationCost(), which must be positive. `cells`
/// counts a banded call's cells as in the unit-cost verifier.
double BoundedTreeEditDistanceWeighted(const TedTree& t1, const TedTree& t2,
                                       double tau, const CostModel& costs,
                                       int64_t* cells = nullptr);

}  // namespace treesim

#endif  // TREESIM_TED_BOUNDED_TED_H_
