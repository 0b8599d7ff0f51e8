#include "ted/bounded_ted.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/hot.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/safe_math.h"

namespace treesim {
namespace {

/// Unit costs with integer arithmetic (mirrors zhang_shasha.cc so in-band
/// cells compute the exact same values as the unbounded kernel).
struct UnitCosts {
  using Dist = int;
  int Delete(LabelId) const { return 1; }
  int Insert(LabelId) const { return 1; }
  int Relabel(LabelId a, LabelId b) const { return a == b ? 0 : 1; }
};

/// Arbitrary costs via the virtual CostModel.
struct ModelCosts {
  using Dist = double;
  const CostModel& model;
  double Delete(LabelId l) const { return model.Delete(l); }
  double Insert(LabelId l) const { return model.Insert(l); }
  double Relabel(LabelId a, LabelId b) const { return model.Relabel(a, b); }
};

/// Pruning telemetry for one call, accumulated locally (no atomics in the
/// DP loops) and published to the registry once by the wrappers.
struct BoundedStats {
  int64_t cells_total = 0;     // what the unbounded kernel would compute
  int64_t cells_computed = 0;  // what the band actually computed
};

/// Zhang–Shasha over a diagonal band, with saturation at `cap`.
///
/// Invariant (induction over the DP order): every stored cell holds
/// min(its true value, cap)-or-more, and holds the EXACT true value
/// whenever that value is <= tau. Why the band is lossless for <= tau
/// answers: a forest pair offset by |x - y| prefix nodes needs at least
/// that many unmatched nodes, each costing >= 1 (>= c_min scaled into
/// `band` for weighted costs), so every optimal derivation of a <= tau
/// value stays strictly inside the band and reads only inputs whose true
/// values are themselves <= tau (costs are nonnegative) — i.e. inputs the
/// invariant already guarantees exact.
///
/// `td` is cap-initialized: subtree-pair cells the band never writes stand
/// for "farther than tau", which the invariant shows is the truth for them.
template <typename Costs>
typename Costs::Dist TREESIM_HOT BoundedImpl(const TedTree& t1,
                                             const TedTree& t2,
                                             const Costs& costs,
                                             const int band,
                                             const typename Costs::Dist tau,
                                             const typename Costs::Dist cap,
                                             BoundedStats& stats) {
  using Dist = typename Costs::Dist;
  const int n1 = t1.size();
  const int n2 = t2.size();
  TREESIM_CHECK(n1 > 0 && n2 > 0) << "trees must be non-empty";

  std::vector<Dist> td(static_cast<size_t>(n1) * static_cast<size_t>(n2),
                       cap);
  std::vector<Dist> fd(static_cast<size_t>(n1 + 1) *
                       static_cast<size_t>(n2 + 1));
  const size_t fd_stride = static_cast<size_t>(n2) + 1;
  auto fd_at = [&](int x, int y) -> Dist& {
    return fd[static_cast<size_t>(x) * fd_stride + static_cast<size_t>(y)];
  };
  // Every fd read goes through the band test: an out-of-band cell provably
  // holds a forest distance > tau, so `cap` stands in for it — and the
  // stale value a previous keyroot pair left in the shared scratch matrix
  // is never observed.
  auto fd_read = [&](int x, int y) -> Dist {
    return (x - y > band || y - x > band) ? cap : fd_at(x, y);
  };
  auto clamped = [&](Dist v) -> Dist { return v > tau ? cap : v; };

  for (const int k1 : t1.keyroots) {
    for (const int k2 : t2.keyroots) {
      const int l1 = t1.lml[static_cast<size_t>(k1)];
      const int l2 = t2.lml[static_cast<size_t>(k2)];
      const int rows = k1 - l1 + 1;
      const int cols = k2 - l2 + 1;
      stats.cells_total =
          CheckedAdd(stats.cells_total, CheckedMul<int64_t>(rows, cols));
      // fd indices are offset: x = di - l1 + 1, y = dj - l2 + 1. The
      // boundary row/column only exist up to the band edge; past it they
      // are > tau by construction and fd_read substitutes cap.
      fd_at(0, 0) = Dist{0};
      const int x_boundary = std::min(rows, band);
      for (int x = 1; x <= x_boundary; ++x) {
        fd_at(x, 0) = clamped(CheckedAddAny(
            fd_at(x - 1, 0),
            costs.Delete(t1.labels[static_cast<size_t>(l1 + x - 1)])));
      }
      const int y_boundary = std::min(cols, band);
      for (int y = 1; y <= y_boundary; ++y) {
        fd_at(0, y) = clamped(CheckedAddAny(
            fd_at(0, y - 1),
            costs.Insert(t2.labels[static_cast<size_t>(l2 + y - 1)])));
      }
      for (int x = 1; x <= rows; ++x) {
        const int y_lo = std::max(1, x - band);
        const int y_hi = std::min(cols, x + band);
        if (y_lo > cols) break;  // this and all later rows are out of band
        const int di = l1 + x - 1;
        const LabelId a = t1.labels[static_cast<size_t>(di)];
        const int lml1 = t1.lml[static_cast<size_t>(di)];
        const Dist del_cost = costs.Delete(a);  // row-invariant
        for (int y = y_lo; y <= y_hi; ++y) {
          const int dj = l2 + y - 1;
          const LabelId b = t2.labels[static_cast<size_t>(dj)];
          // In-band neighbor reads skip the band test: for any in-band
          // (x, y), the delete read (x-1, y) is out of band only at
          // y == x + band, the insert read (x, y-1) only at y == x - band,
          // and the relabel read (x-1, y-1) never (|x-y| unchanged) — and
          // each in-band neighbor was written this pair (row x-1 covers
          // [x-1-band, x-1+band] clipped, the boundary fills cover row 0 /
          // column 0 up to the band edge).
          const Dist del = CheckedAddAny(
              y == x + band ? cap : fd_at(x - 1, y), del_cost);
          const Dist ins = CheckedAddAny(
              y == x - band ? cap : fd_at(x, y - 1), costs.Insert(b));
          Dist best;
          const int lml2dj = t2.lml[static_cast<size_t>(dj)] - l2;
          if (lml1 == l1 && lml2dj == 0) {
            // Both prefixes are whole subtrees: this cell is a tree
            // distance.
            const Dist rel =
                CheckedAddAny(fd_at(x - 1, y - 1), costs.Relabel(a, b));
            best = clamped(std::min({del, ins, rel}));
            td[static_cast<size_t>(di) * static_cast<size_t>(n2) +
               static_cast<size_t>(dj)] = best;
          } else {
            // The jump read targets an arbitrary earlier row/column, so it
            // keeps the full band test (out of band => cap).
            const Dist sub = CheckedAddAny(
                fd_read(lml1 - l1, lml2dj),
                td[static_cast<size_t>(di) * static_cast<size_t>(n2) +
                   static_cast<size_t>(dj)]);
            best = clamped(std::min({del, ins, sub}));
          }
          fd_at(x, y) = best;
        }
        stats.cells_computed = CheckedAdd(
            stats.cells_computed, static_cast<int64_t>(y_hi - y_lo + 1));
      }
    }
  }
  return td[static_cast<size_t>(n1 - 1) * static_cast<size_t>(n2) +
            static_cast<size_t>(n2 - 1)];
}

/// RTED-style strategy choice restricted to {leftmost, rightmost}: pick
/// the orientation pair with the smaller keyroot-weight product (the DP
/// cell count the decomposition implies). Mirroring BOTH trees preserves
/// the edit distance — a mapping is order-valid on the mirrors iff it is
/// on the originals — so running the kernel on the mirror views is exact.
/// doubles avoid overflow in the product; the comparison is heuristic.
void ChooseOrientation(const TedTree*& t1, const TedTree*& t2) {
  if (t1->mirror == nullptr || t2->mirror == nullptr) return;
  const double left = static_cast<double>(t1->keyroot_weight) *
                      static_cast<double>(t2->keyroot_weight);
  const double right = static_cast<double>(t1->mirror->keyroot_weight) *
                       static_cast<double>(t2->mirror->keyroot_weight);
  if (right < left) {
    t1 = t1->mirror.get();
    t2 = t2->mirror.get();
    TREESIM_COUNTER_INC("ted.bounded_mirror_strategy");
  }
}

/// Whether a band of half-width `band` excludes at least half the cells of
/// the (n1+1) x (n2+1) root forest matrix. The banded kernel pays for its
/// band tests (three guarded reads per cell) on every cell it does compute
/// — measured ~1.7x per cell on the DBLP range workload, a figure taken
/// while the kernel also did per-row early-exit bookkeeping — so it only
/// wins when the band skips a comparable share of the plain kernel's work.
/// Cells with x - y > band form a triangle of tri(n1 - band) cells
/// (symmetrically for y - x); that count is exact for the root pair, which
/// dominates the total cost, so it is the proxy used for the whole call.
bool BandExcludesEnough(int n1, int n2, int band) {
  auto tri = [](int m) {
    return m > 0 ? static_cast<double>(m) * (m + 1) / 2.0 : 0.0;
  };
  const double total =
      (static_cast<double>(n1) + 1) * (static_cast<double>(n2) + 1);
  return 2.0 * (tri(n1 - band) + tri(n2 - band)) >= total;
}

void PublishStats(const BoundedStats& stats) {
  TREESIM_COUNTER_ADD("ted.bounded_cells_computed", stats.cells_computed);
  TREESIM_COUNTER_ADD("ted.bounded_cells_band_pruned",
                      stats.cells_total - stats.cells_computed);
}

}  // namespace

int TREESIM_HOT BoundedTreeEditDistance(const TedTree& t1, const TedTree& t2,
                                        int tau) {
  TREESIM_COUNTER_INC("ted.bounded_calls");
  const int n1 = t1.size();
  const int n2 = t2.size();
  // Every distance is <= n1 + n2 (delete one tree, insert the other), so a
  // threshold at least that large is effectively unbounded — the plain
  // kernel is then the faster verifier (no band tests per read).
  if (tau >= CheckedAdd(n1, n2)) return TreeEditDistance(t1, t2);
  // Negative threshold: every distance exceeds it; 0 answers "> tau".
  if (tau < 0) return 0;
  // Size difference is a lower bound, checked before any allocation.
  if (n1 - n2 > tau || n2 - n1 > tau) return tau + 1;
  // Wide band on small trees: the per-read band checks would cost more
  // than the pruning saves. Run the plain kernel and clamp, which
  // preserves the min(exact, tau + 1) contract exactly (tau < n1 + n2
  // here, so tau + 1 cannot overflow).
  if (!BandExcludesEnough(n1, n2, tau)) {
    return std::min(TreeEditDistance(t1, t2), tau + 1);
  }
  TREESIM_HISTOGRAM_RECORD("ted.problem_nodes", CountBuckets(),
                           static_cast<int64_t>(n1) + n2);
  const TedTree* a = &t1;
  const TedTree* b = &t2;
  ChooseOrientation(a, b);
  BoundedStats stats;
  const int d =
      BoundedImpl(*a, *b, UnitCosts{}, /*band=*/tau, tau, /*cap=*/tau + 1,
                  stats);
  PublishStats(stats);
  return d;
}

int BoundedTreeEditDistance(const Tree& t1, const Tree& t2, int tau) {
  return BoundedTreeEditDistance(TedTree::FromTree(t1), TedTree::FromTree(t2),
                                 tau);
}

double TREESIM_HOT BoundedTreeEditDistanceWeighted(const TedTree& t1,
                                                   const TedTree& t2,
                                                   double tau,
                                                   const CostModel& costs) {
  TREESIM_COUNTER_INC("ted.bounded_weighted_calls");
  const double c_min = costs.MinOperationCost();
  TREESIM_CHECK_GT(c_min, 0.0) << "MinOperationCost must be positive";
  const double inf = std::numeric_limits<double>::infinity();
  // Catches both negative and NaN thresholds: nothing is within them.
  if (!(tau >= 0.0)) return inf;
  const int n1 = t1.size();
  const int n2 = t2.size();
  const int max_band = CheckedAdd(n1, n2);
  if (tau >= c_min * static_cast<double>(max_band)) {
    // The band would cover every diagonal (this also absorbs tau = +inf,
    // whose floor-to-int below would be undefined). Note this does NOT
    // mean the answer is exact for free — c_min * max_band can be far
    // below the true maximum — but banding has nothing left to prune.
    return TreeEditDistanceWeighted(t1, t2, costs);
  }
  // A forest pair offset by m prefix nodes costs >= m * c_min, so the band
  // only needs diagonals with m * c_min <= tau. The +1 absorbs the
  // floating-point rounding of the division (conservative: one diagonal
  // too many is wasted work, one too few would be unsound).
  int band = static_cast<int>(tau / c_min) + 1;
  if (band > max_band) band = max_band;
  if (n1 - n2 > band || n2 - n1 > band) return inf;
  // Same profitability gate as the unit kernel: a band this wide on trees
  // this small prunes too little to pay for its per-read checks. The plain
  // kernel returns the exact distance, which satisfies the contract on
  // both sides of tau (callers are promised only "some value > tau" on
  // rejection, not a specific sentinel).
  if (!BandExcludesEnough(n1, n2, band)) {
    return TreeEditDistanceWeighted(t1, t2, costs);
  }
  // No orientation choice here: the mirrored decomposition sums the same
  // optimal derivation in a different order, and reordered floating-point
  // adds would break the bit-identical promise to the unbounded kernel.
  // The exact <= tau values must match TreeEditDistanceWeighted to the ulp
  // so rewired call sites stay byte-identical.
  BoundedStats stats;
  const double d =
      BoundedImpl(t1, t2, ModelCosts{costs}, band, tau, /*cap=*/inf, stats);
  PublishStats(stats);
  return d;
}

}  // namespace treesim
