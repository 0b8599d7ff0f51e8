#include "ted/zhang_shasha.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "ted/bounded_ted.h"
#include "tree/traversal.h"
#include "util/hot.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/safe_math.h"

namespace treesim {
namespace {

/// Unit costs with integer arithmetic (the common case in the paper).
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

/// The Zhang–Shasha dynamic program, full width or over a diagonal band.
/// `td` and `fd` layouts follow the original paper: td[i*n2+j] is the
/// distance between the subtrees rooted at postorder nodes i of T1 and j of
/// T2; fd is the forest-distance scratch matrix of one keyroot pair, reused
/// across pairs to avoid reallocation. Returns the full td matrix; the
/// overall distance is its last entry.
///
/// Banded (`kBanded`): each keyroot pair's forest matrix is computed only
/// on its |x - y| <= `band` diagonals, and `cells` accumulates how many
/// cells that is. Invariant (induction over the DP order): every stored
/// cell holds min(its true value, `cap`)-or-more, and holds the EXACT true
/// value whenever that value is <= tau, where `band` covers every diagonal
/// a <= tau value can sit on and `cap` > tau. Why the band is lossless for
/// <= tau answers: a forest pair offset by |x - y| prefix nodes needs at
/// least that many unmatched nodes, each costing >= 1 (>= c_min scaled into
/// `band` for weighted costs), so every optimal derivation of a <= tau
/// value stays strictly inside the band and reads only inputs whose true
/// values are themselves <= tau (costs are nonnegative) — i.e. inputs the
/// invariant already guarantees exact. Cells are not clamped: a value above
/// tau only has to stay >= min(true value, cap), which every option of the
/// minimum does when its out-of-band inputs read `cap`.
///
/// `td` is cap-initialized: subtree-pair cells the band never writes stand
/// for "farther than tau", which the invariant shows is the truth for them
/// (a subtree pair is out of band exactly when its sizes differ by more
/// than `band`). Full width writes every td cell before reading it.
template <bool kBanded, typename Costs>
std::vector<typename Costs::Dist> ZhangShashaImpl(
    const TedTree& t1, const TedTree& t2, const Costs& costs,
    const int band = 0, const typename Costs::Dist cap = {},
    int64_t* cells = nullptr) {
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

  for (const int k1 : t1.keyroots) {
    for (const int k2 : t2.keyroots) {
      const int l1 = t1.lml[static_cast<size_t>(k1)];
      const int l2 = t2.lml[static_cast<size_t>(k2)];
      const int rows = k1 - l1 + 1;
      const int cols = k2 - l2 + 1;
      // fd indices are offset: x = di - l1 + 1, y = dj - l2 + 1. Banded,
      // the boundary row/column only exist up to the band edge, and `cap`
      // goes into the cell just past it: row 1's last delete read.
      fd_at(0, 0) = Dist{0};
      const int x_boundary = kBanded ? std::min(rows, band) : rows;
      for (int x = 1; x <= x_boundary; ++x) {
        fd_at(x, 0) = CheckedAddAny(
            fd_at(x - 1, 0),
            costs.Delete(t1.labels[static_cast<size_t>(l1 + x - 1)]));
      }
      const int y_boundary = kBanded ? std::min(cols, band) : cols;
      for (int y = 1; y <= y_boundary; ++y) {
        fd_at(0, y) = CheckedAddAny(
            fd_at(0, y - 1),
            costs.Insert(t2.labels[static_cast<size_t>(l2 + y - 1)]));
      }
      if constexpr (kBanded) {
        if (band < cols) fd_at(0, band + 1) = cap;
      }
      for (int x = 1; x <= rows; ++x) {
        int y_lo = 1;
        int y_hi = cols;
        if constexpr (kBanded) {
          y_lo = std::max(1, x - band);
          y_hi = std::min(cols, x + band);
          if (y_lo > cols) break;  // this and all later rows are out of band
          // Out-of-band cells hold forest distances > tau, so `cap` stands in
          // for the two that neighbor reads reach: for an in-band (x, y) the
          // insert read (x, y-1) leaves the band only at y == x - band, the
          // delete read (x-1, y) only at y == x + band, and the relabel read
          // (x-1, y-1) never. One sentinel on each side of the row covers
          // this row's first insert read and the next row's last delete
          // read; every other neighbor read lands on a cell this keyroot
          // pair wrote, so no stale scratch of an earlier pair is observed.
          if (x > band) fd_at(x, x - band - 1) = cap;
          if (x + band < cols) fd_at(x, x + band + 1) = cap;
          *cells = CheckedAdd(*cells, static_cast<int64_t>(y_hi - y_lo + 1));
        }
        const int di = l1 + x - 1;
        const LabelId a = t1.labels[static_cast<size_t>(di)];
        const int lml1 = t1.lml[static_cast<size_t>(di)];
        const Dist del_cost = costs.Delete(a);  // row-invariant
        for (int y = y_lo; y <= y_hi; ++y) {
          const int dj = l2 + y - 1;
          const LabelId b = t2.labels[static_cast<size_t>(dj)];
          const Dist del = CheckedAddAny(fd_at(x - 1, y), del_cost);
          const Dist ins = CheckedAddAny(fd_at(x, y - 1), costs.Insert(b));
          Dist& td_cell = td[static_cast<size_t>(di) * static_cast<size_t>(n2) +
                             static_cast<size_t>(dj)];
          const int lml2dj = t2.lml[static_cast<size_t>(dj)] - l2;
          if (lml1 == l1 && lml2dj == 0) {
            // Both prefixes are whole subtrees: this cell is a tree distance.
            const Dist rel =
                CheckedAddAny(fd_at(x - 1, y - 1), costs.Relabel(a, b));
            td_cell = std::min({del, ins, rel});
            fd_at(x, y) = td_cell;
          } else {
            // The jump read targets an arbitrary earlier row/column, so
            // banded it keeps the full band test (out of band => cap).
            const int jx = lml1 - l1;
            const bool out_of_band =
                kBanded && (jx - lml2dj > band || lml2dj - jx > band);
            const Dist sub = CheckedAddAny(
                out_of_band ? cap : fd_at(jx, lml2dj), td_cell);
            fd_at(x, y) = std::min({del, ins, sub});
          }
        }
      }
    }
  }
  return td;
}

/// Whether a band of half-width `band` excludes at least half the cells of
/// the (n1+1) x (n2+1) root forest matrix. The banded recurrence pays for
/// its per-row set-up (range clipping, two sentinel writes, a short row)
/// and its jump-read band test on every cell it does compute: 1.5-1.8x the
/// full-width per-cell cost (micro_distances, 50- and 125-node pairs at
/// tau 2 and 8, more at tau 2) — so it only wins when the band skips a
/// comparable share of the full-width work. The half-share threshold was
/// set from an older ~1.7x figure and stays until a change that moves it
/// shows fig14 at tau >= 4 flat.
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

/// Pruning telemetry for one banded call, counted locally (no atomics in
/// the DP loops) and published once: to the registry, and to the caller's
/// `cells` when given. Each keyroot pair's forest matrix is
/// (k1 - lml(k1) + 1) x (k2 - lml(k2) + 1), so the full-width kernel would
/// compute the product of the two views' keyroot weights.
void PublishCells(const TedTree& t1, const TedTree& t2, int64_t computed,
                  int64_t* cells) {
  TREESIM_COUNTER_ADD("ted.bounded_cells_computed", computed);
  TREESIM_COUNTER_ADD(
      "ted.bounded_cells_band_pruned",
      CheckedMul(t1.keyroot_weight, t2.keyroot_weight) - computed);
  if (cells != nullptr) *cells = CheckedAdd(*cells, computed);
}

}  // namespace

TedTree TedTree::FromTree(const Tree& t) {
  TREESIM_CHECK(!t.empty());
  const int n = t.size();
  const std::vector<NodeId> post = PostorderSequence(t);
  std::vector<int> post_index(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    post_index[static_cast<size_t>(post[static_cast<size_t>(i)])] = i;
  }
  TedTree out;
  out.labels.resize(static_cast<size_t>(n));
  out.lml.resize(static_cast<size_t>(n));
  // Keyroots: the root and every node with a left sibling, one per leaf
  // (each internal node with c children adds c - 1 to the root's one).
  out.keyroots.reserve(static_cast<size_t>(LeafCount(t)));
  for (int i = 0; i < n; ++i) {
    const NodeId node = post[static_cast<size_t>(i)];
    out.labels[static_cast<size_t>(i)] = t.label(node);
    // Children precede parents in postorder, so lml of the first child is
    // already final.
    const NodeId fc = t.first_child(node);
    out.lml[static_cast<size_t>(i)] =
        (fc == kInvalidNode)
            ? i
            : out.lml[static_cast<size_t>(post_index[static_cast<size_t>(fc)])];
    const NodeId parent = t.parent(node);
    if (parent == kInvalidNode || t.first_child(parent) != node) {
      out.keyroots.push_back(i);
      out.keyroot_weight = CheckedAdd<int64_t>(
          out.keyroot_weight, i - out.lml[static_cast<size_t>(i)] + 1);
    }
  }
  return out;
}

int TREESIM_HOT TreeEditDistance(const TedTree& t1, const TedTree& t2) {
  TREESIM_COUNTER_INC("ted.zhang_shasha_calls");
  return ZhangShashaImpl<false>(t1, t2, UnitCosts{}).back();
}

std::vector<int> TreeDistanceMatrix(const TedTree& t1, const TedTree& t2) {
  return ZhangShashaImpl<false>(t1, t2, UnitCosts{});
}

int TreeEditDistance(const Tree& t1, const Tree& t2) {
  return TreeEditDistance(TedTree::FromTree(t1), TedTree::FromTree(t2));
}

double TREESIM_HOT TreeEditDistanceWeighted(const TedTree& t1,
                                            const TedTree& t2,
                                            const CostModel& costs) {
  TREESIM_COUNTER_INC("ted.zhang_shasha_weighted_calls");
  return ZhangShashaImpl<false>(t1, t2, ModelCosts{costs}).back();
}

int TREESIM_HOT BoundedTreeEditDistance(const TedTree& t1, const TedTree& t2,
                                        int tau, int64_t* cells) {
  TREESIM_COUNTER_INC("ted.bounded_calls");
  const int n1 = t1.size();
  const int n2 = t2.size();
  // Every distance is <= n1 + n2 (delete one tree, insert the other), so a
  // threshold at least that large is effectively unbounded — the
  // full-width kernel is then the faster verifier (no band set-up per row).
  if (tau >= CheckedAdd(n1, n2)) return TreeEditDistance(t1, t2);
  // Negative threshold: every distance exceeds it; 0 answers "> tau".
  if (tau < 0) return 0;
  // Size difference is a lower bound, checked before any allocation.
  if (n1 - n2 > tau || n2 - n1 > tau) return tau + 1;
  // Wide band on small trees: the band's per-cell overhead would cost more
  // than the pruning saves. Run the full-width kernel and clamp, which
  // preserves the min(exact, tau + 1) contract exactly (tau < n1 + n2
  // here, so tau + 1 cannot overflow).
  if (!BandExcludesEnough(n1, n2, tau)) {
    return std::min(TreeEditDistance(t1, t2), tau + 1);
  }
  int64_t computed = 0;
  const int d = ZhangShashaImpl<true>(t1, t2, UnitCosts{}, /*band=*/tau,
                                      /*cap=*/tau + 1, &computed)
                    .back();
  PublishCells(t1, t2, computed, cells);
  // The one clamp: a value above tau is >= tau + 1 by the kernel invariant.
  return std::min(d, tau + 1);
}

int BoundedTreeEditDistance(const Tree& t1, const Tree& t2, int tau) {
  return BoundedTreeEditDistance(TedTree::FromTree(t1), TedTree::FromTree(t2),
                                 tau);
}

double TREESIM_HOT BoundedTreeEditDistanceWeighted(const TedTree& t1,
                                                   const TedTree& t2,
                                                   double tau,
                                                   const CostModel& costs,
                                                   int64_t* cells) {
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
  // this small prunes too little to pay for its per-cell overhead. The
  // full-width kernel returns the exact distance, which satisfies the
  // contract on both sides of tau (callers are promised only "some value
  // > tau" on rejection, not a specific sentinel).
  if (!BandExcludesEnough(n1, n2, band)) {
    return TreeEditDistanceWeighted(t1, t2, costs);
  }
  // The exact <= tau values must match TreeEditDistanceWeighted to the ulp
  // so rewired call sites stay byte-identical. Unclamped, a rejected
  // call's value is some value > tau (+infinity or finite).
  int64_t computed = 0;
  const double d =
      ZhangShashaImpl<true>(t1, t2, ModelCosts{costs}, band, /*cap=*/inf,
                            &computed)
          .back();
  PublishCells(t1, t2, computed, cells);
  return d;
}

}  // namespace treesim
