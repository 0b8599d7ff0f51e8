// Unit tests for the bounded-TED refine engine (ted/bounded_ted.h): the
// exactness/clamp contract on random pairs, threshold edge cases, the
// keyroot structure of the postorder view, and — guarded by
// TREESIM_METRICS — that the band pruning engages on large problems and
// prunes exactly the out-of-band cells.
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "ted/bounded_ted.h"
#include "ted/cost_model.h"
#include "ted/zhang_shasha.h"
#include "test_util.h"
#include "tree/traversal.h"
#include "tree/tree.h"
#include "util/metrics.h"
#include "util/random.h"

namespace treesim {
namespace {

using testing::MakeLabelPool;
using testing::MakeTree;
using testing::RandomTree;

constexpr uint64_t kSeed = 2005;  // publication year of the source paper

/// A chain of `size` nodes — single keyroot, worst case for the band.
Tree Spine(int size, const std::vector<LabelId>& pool,
           const std::shared_ptr<LabelDictionary>& labels) {
  TreeBuilder builder(labels);
  builder.AddRootId(pool[0]);
  for (int i = 1; i < size; ++i) {
    builder.AddChildId(static_cast<NodeId>(i - 1),
                       pool[static_cast<size_t>(i) % pool.size()]);
  }
  return std::move(builder).Build();
}

/// A root with `size - 1` leaf children, all drawn from `pool` round-robin.
Tree Star(int size, const std::vector<LabelId>& pool,
          const std::shared_ptr<LabelDictionary>& labels) {
  TreeBuilder builder(labels);
  builder.AddRootId(pool[0]);
  for (int i = 1; i < size; ++i) {
    builder.AddChildId(0, pool[static_cast<size_t>(i) % pool.size()]);
  }
  return std::move(builder).Build();
}

/// A spine whose every node carries one LEADING leaf (the spine child is
/// the last child): under the leftmost decomposition every spine subtree
/// is a keyroot, so the keyroot weight is quadratic in the teeth — the
/// worst case of that decomposition.
Tree LeftComb(int teeth, const std::vector<LabelId>& pool,
              const std::shared_ptr<LabelDictionary>& labels) {
  TreeBuilder builder(labels);
  builder.AddRootId(pool[0]);
  NodeId spine = 0;
  for (int i = 0; i < teeth; ++i) {
    builder.AddChildId(spine, pool[1 % pool.size()]);
    spine = builder.AddChildId(
        spine, pool[static_cast<size_t>(i + 2) % pool.size()]);
  }
  return std::move(builder).Build();
}

/// The sum of subtree sizes over the keyroots of the leftmost decomposition
/// (the root and every child past the first), read off the tree itself
/// rather than its postorder view.
int64_t KeyrootSubtreeSizeSum(const Tree& t) {
  std::vector<int64_t> sizes(static_cast<size_t>(t.size()), 1);
  const std::vector<NodeId> pre = PreorderSequence(t);
  for (auto it = pre.rbegin(); it != pre.rend(); ++it) {
    const NodeId parent = t.parent(*it);
    if (parent != kInvalidNode) {
      sizes[static_cast<size_t>(parent)] += sizes[static_cast<size_t>(*it)];
    }
  }
  int64_t sum = sizes[static_cast<size_t>(t.root())];
  for (NodeId n = 0; n < t.size(); ++n) {
    if (t.is_leaf(n)) continue;
    for (NodeId c = t.next_sibling(t.first_child(n)); c != kInvalidNode;
         c = t.next_sibling(c)) {
      sum += sizes[static_cast<size_t>(c)];
    }
  }
  return sum;
}

/// Indels cost 1.5 and relabels 1 (c_min = 1): the band is as wide as
/// under unit costs while the distances it must reproduce are weighted.
class IndelHeavyCosts final : public CostModel {
 public:
  double Insert(LabelId /*label*/) const override { return 1.5; }
  double Delete(LabelId /*label*/) const override { return 1.5; }
};

TEST(BoundedTedTest, ExactWithinThresholdOnRandomPairs) {
  auto labels = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(labels, 4);
  Rng rng(kSeed);
  for (int i = 0; i < 120; ++i) {
    const Tree t1 =
        RandomTree(1 + static_cast<int>(rng.UniformIndex(20)), pool, labels,
                   rng);
    const Tree t2 =
        RandomTree(1 + static_cast<int>(rng.UniformIndex(20)), pool, labels,
                   rng);
    const int exact = TreeEditDistance(t1, t2);
    for (const int tau : {exact, exact + 1, exact + 3}) {
      EXPECT_EQ(BoundedTreeEditDistance(t1, t2, tau), exact) << "tau=" << tau;
    }
    for (const int tau : {0, exact - 1}) {
      if (tau < 0) continue;
      EXPECT_EQ(BoundedTreeEditDistance(t1, t2, tau),
                tau < exact ? tau + 1 : exact)
          << "tau=" << tau;
    }
  }
}

TEST(BoundedTedTest, ThresholdEdgeCases) {
  auto labels = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(labels, 3);
  const Tree a = Spine(6, pool, labels);
  const Tree b = Star(6, pool, labels);
  const int exact = TreeEditDistance(a, b);
  // tau = 0 answers the equality question.
  EXPECT_EQ(BoundedTreeEditDistance(a, a, 0), 0);
  EXPECT_EQ(BoundedTreeEditDistance(a, b, 0), exact == 0 ? 0 : 1);
  // Negative thresholds: everything is farther, reported as 0 (> tau).
  EXPECT_EQ(BoundedTreeEditDistance(a, b, -1), 0);
  EXPECT_EQ(BoundedTreeEditDistance(a, b, std::numeric_limits<int>::min()),
            0);
  // Unbounded-equivalent thresholds delegate and stay exact (INT_MAX must
  // not overflow the cap arithmetic).
  EXPECT_EQ(BoundedTreeEditDistance(a, b, a.size() + b.size()), exact);
  EXPECT_EQ(BoundedTreeEditDistance(a, b, std::numeric_limits<int>::max()),
            exact);
  // Single-node trees.
  const Tree one = Star(1, pool, labels);
  EXPECT_EQ(BoundedTreeEditDistance(one, one, 0), 0);
  EXPECT_EQ(BoundedTreeEditDistance(one, a, 2), 3);  // distance 5 > 2
}

TEST(BoundedTedTest, SizeDifferenceRejectsBeforeAnyDpWork) {
  auto labels = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(labels, 2);
  const Tree big = Spine(40, pool, labels);
  const Tree small = Spine(3, pool, labels);
  // |40 - 3| = 37 > 5, so the quick reject answers without touching the DP.
  EXPECT_EQ(BoundedTreeEditDistance(big, small, 5), 6);
  EXPECT_EQ(BoundedTreeEditDistance(small, big, 5), 6);
}

TEST(BoundedTedTest, KeyrootViewStructure) {
  auto labels = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(labels, 3);
  const int teeth = 8;
  const Tree comb = LeftComb(teeth, pool, labels);  // 17 nodes
  const TedTree view = TedTree::FromTree(comb);
  EXPECT_EQ(view.size(), comb.size());
  // Every spine subtree is a keyroot (the tooth precedes the spine child),
  // and they hold 1, 3, ..., 2 * teeth + 1 nodes: the leftmost weight is
  // quadratic in the teeth.
  EXPECT_EQ(view.keyroot_weight, KeyrootSubtreeSizeSum(comb));
  EXPECT_EQ(view.keyroot_weight, int64_t{teeth + 1} * (teeth + 1));

  // Random trees: one keyroot per leaf, and the weight, which counts the
  // root's whole subtree, is at least the tree size.
  Rng rng(kSeed + 1);
  for (int i = 0; i < 30; ++i) {
    const Tree t =
        RandomTree(1 + static_cast<int>(rng.UniformIndex(24)), pool, labels,
                   rng);
    const TedTree v = TedTree::FromTree(t);
    EXPECT_EQ(v.keyroot_weight, KeyrootSubtreeSizeSum(t));
    EXPECT_GE(v.keyroot_weight, v.size());
    EXPECT_EQ(static_cast<int>(v.keyroots.size()), LeafCount(t));
  }
}

TEST(BoundedTedTest, LeftCombsStayExact) {
  // Pairs of left combs, the quadratic case of the leftmost decomposition,
  // go through the band; the answers must stay exactly the Zhang–Shasha
  // distances.
  auto labels = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(labels, 4);
  Rng rng(kSeed + 2);
  for (int teeth1 = 2; teeth1 <= 8; ++teeth1) {
    for (int teeth2 = 2; teeth2 <= 8; ++teeth2) {
      const Tree t1 = LeftComb(teeth1, pool, labels);
      const Tree t2 = LeftComb(teeth2, pool, labels);
      const int exact = TreeEditDistance(t1, t2);
      for (const int tau : {exact - 1, exact, exact + 2}) {
        if (tau < 0) continue;
        EXPECT_EQ(BoundedTreeEditDistance(t1, t2, tau),
                  tau < exact ? tau + 1 : exact)
            << "teeth=" << teeth1 << "," << teeth2 << " tau=" << tau;
      }
      // Comb versus a random tree: one side of quadratic weight.
      const Tree r =
          RandomTree(1 + static_cast<int>(rng.UniformIndex(14)), pool,
                     labels, rng);
      const int exact_r = TreeEditDistance(t1, r);
      EXPECT_EQ(BoundedTreeEditDistance(t1, r, exact_r), exact_r);
    }
  }
}

TEST(BoundedTedTest, WeightedAgreesWithUnboundedUnderUnitCosts) {
  auto labels = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(labels, 3);
  Rng rng(kSeed + 3);
  const CostModel& unit = UnitCostModel::Get();
  for (int i = 0; i < 40; ++i) {
    const TedTree v1 = TedTree::FromTree(
        RandomTree(1 + static_cast<int>(rng.UniformIndex(16)), pool, labels,
                   rng));
    const TedTree v2 = TedTree::FromTree(
        RandomTree(1 + static_cast<int>(rng.UniformIndex(16)), pool, labels,
                   rng));
    const double exact = TreeEditDistanceWeighted(v1, v2, unit);
    EXPECT_EQ(BoundedTreeEditDistanceWeighted(v1, v2, exact, unit), exact);
    // Unit weighted distance equals the integer distance.
    EXPECT_EQ(exact, static_cast<double>(TreeEditDistance(v1, v2)));
    if (exact > 0.0) {
      EXPECT_GT(BoundedTreeEditDistanceWeighted(v1, v2, exact - 0.5, unit),
                exact - 0.5);
    }
  }
}

TEST(BoundedTedTest, BandPruningEngagesOnLargeProblems) {
  if (!kMetricsEnabled) GTEST_SKIP() << "TREESIM_METRICS=OFF";
  auto labels = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(labels, 2);
  const Tree t1 = Spine(60, pool, labels);
  const Tree t2 = Spine(58, pool, labels);
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  const int d = BoundedTreeEditDistance(t1, t2, 4);
  const MetricsSnapshot delta =
      MetricsRegistry::Global().Snapshot().DiffSince(before);
  EXPECT_EQ(d, TreeEditDistance(t1, t2));  // true distance is 2 <= 4
  EXPECT_EQ(delta.counter("ted.bounded_calls"), 1);
  // A tau=4 band over a 60x58 single-keyroot-pair matrix computes a thin
  // diagonal; nearly everything else is pruned.
  EXPECT_GT(delta.counter("ted.bounded_cells_band_pruned"),
            delta.counter("ted.bounded_cells_computed"));
}

TEST(BoundedTedTest, BandPrunesExactlyTheOutOfBandCells) {
  if (!kMetricsEnabled) GTEST_SKIP() << "TREESIM_METRICS=OFF";
  // Two spines over disjoint label pools: one keyroot pair, and every
  // in-band cell past the first rows saturates at tau + 1. The band is the
  // only pruning, so the pruned count is exactly the cells with |x - y| >
  // tau and every in-band cell is computed, saturated or not.
  auto labels = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(labels, 4);
  const std::vector<LabelId> pool_a = {pool[0], pool[1]};
  const std::vector<LabelId> pool_b = {pool[2], pool[3]};
  const int n1 = 24;
  const int n2 = 22;
  const int tau = 2;
  const Tree t1 = Spine(n1, pool_a, labels);
  const Tree t2 = Spine(n2, pool_b, labels);
  int64_t out_of_band = 0;
  for (int x = 1; x <= n1; ++x) {
    for (int y = 1; y <= n2; ++y) {
      if (x - y > tau || y - x > tau) ++out_of_band;
    }
  }
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(BoundedTreeEditDistance(t1, t2, tau), tau + 1);
  const MetricsSnapshot delta =
      MetricsRegistry::Global().Snapshot().DiffSince(before);
  EXPECT_EQ(delta.counter("ted.bounded_calls"), 1);
  EXPECT_EQ(delta.counter("ted.bounded_cells_band_pruned"), out_of_band);
  EXPECT_EQ(delta.counter("ted.bounded_cells_computed"),
            int64_t{n1} * n2 - out_of_band);
}

TEST(BoundedTedTest, ExactAtEveryTauOnAdversarialShapes) {
  // Disjoint-label and shared-label shape pairs, where saturated rows and
  // subtree jumps across the band edge are common, at every threshold up to
  // the sum of the sizes. The weighted verifier runs the same sweep in half
  // steps up to c_min * (n1 + n2), where its band stops pruning: it must
  // match the unbounded kernel bit for bit once tau reaches the distance
  // and return some value > tau below it.
  auto labels = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(labels, 6);
  const std::vector<LabelId> half1 = {pool[0], pool[1], pool[2]};
  const std::vector<LabelId> half2 = {pool[3], pool[4], pool[5]};
  std::vector<Tree> shapes;
  for (const auto* p : {&half1, &half2}) {
    shapes.push_back(Spine(13, *p, labels));
    shapes.push_back(Star(13, *p, labels));
    shapes.push_back(LeftComb(6, *p, labels));
  }
  // Two nodes longer than the first spine, labels shared: at tau = 2 the
  // optimal mapping runs along the band edge, so a missing sentinel there
  // reads stale scratch on the optimal path.
  shapes.push_back(Spine(15, half1, labels));
  // The band-edge fuzz seeds (fuzz/corpus/bounded_ted/band_*_edge), whose
  // subtree jumps reach outside the band.
  for (const char* text :
       {"b{b{b{a{b{a} b{b}}}} b a b a}", "a{a{a{a{b}}} a a{a a}}",
        "b{b{b{a{b b} a} b a{a}} b{b a{a} a a} b a{a b}}",
        "b{b b{b a{b{b{a{b}} b a} a a{b{a{b a} a} a{a}}}} a{b} a}"}) {
    shapes.push_back(MakeTree(text, labels));
  }
  const IndelHeavyCosts costs;
  for (const Tree& t1 : shapes) {
    for (const Tree& t2 : shapes) {
      const int exact = TreeEditDistance(t1, t2);
      const int tau_max = t1.size() + t2.size();
      for (int tau = 0; tau <= tau_max; ++tau) {
        const int expected = tau < exact ? tau + 1 : exact;
        ASSERT_EQ(BoundedTreeEditDistance(t1, t2, tau), expected)
            << "tau=" << tau << " EDist=" << exact;
      }
      const TedTree v1 = TedTree::FromTree(t1);
      const TedTree v2 = TedTree::FromTree(t2);
      const double wexact = TreeEditDistanceWeighted(v1, v2, costs);
      const double wtau_max = costs.MinOperationCost() * tau_max;
      for (int half_steps = 0; 0.5 * half_steps <= wtau_max; ++half_steps) {
        const double tau = 0.5 * half_steps;
        const double got = BoundedTreeEditDistanceWeighted(v1, v2, tau, costs);
        if (tau >= wexact) {
          ASSERT_EQ(got, wexact) << "tau=" << tau << " EDist=" << wexact;
        } else {
          ASSERT_GT(got, tau) << "tau=" << tau << " EDist=" << wexact;
        }
      }
    }
  }
}

}  // namespace
}  // namespace treesim
