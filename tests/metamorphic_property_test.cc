// Metamorphic properties of the distance stack on seeded random trees:
// relations the paper proves (Theorems 3.2/3.3, Propositions 4.1/4.2,
// Definition 6 monotonicity) must hold on EVERY input, so instead of golden
// values we sweep hundreds of random pairs and check the relations
// themselves. Any violation is a real soundness bug — these are exactly the
// properties the filter-and-refine engine's correctness rests on.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/binary_branch.h"
#include "core/branch_profile.h"
#include "core/positional.h"
#include "gtest/gtest.h"
#include "ted/bounded_ted.h"
#include "ted/cost_model.h"
#include "ted/zhang_shasha.h"
#include "test_util.h"
#include "util/random.h"

namespace treesim {
namespace {

using testing::MakeLabelPool;
using testing::RandomTree;

constexpr int kPairs = 200;
constexpr int kMaxSize = 24;
constexpr uint64_t kSeed = 20050614;

/// One random tree pair plus everything the properties compare.
struct PairFixture {
  std::shared_ptr<LabelDictionary> labels;
  std::vector<Tree> trees;  // 2 per pair (3 for the triangle fixture)
};

Tree DrawTree(const std::shared_ptr<LabelDictionary>& labels,
              const std::vector<LabelId>& pool, Rng& rng) {
  const int size = 1 + static_cast<int>(rng.UniformIndex(kMaxSize));
  return RandomTree(size, pool, labels, rng);
}

class MetamorphicTest : public ::testing::Test {
 protected:
  void SetUp() override {
    labels_ = std::make_shared<LabelDictionary>();
    pool_ = MakeLabelPool(labels_, 6);
    rng_ = std::make_unique<Rng>(kSeed);
  }

  Tree Draw() { return DrawTree(labels_, pool_, *rng_); }

  std::shared_ptr<LabelDictionary> labels_;
  std::vector<LabelId> pool_;
  std::unique_ptr<Rng> rng_;
};

TEST_F(MetamorphicTest, IdentityAndSymmetryOfBranchDistances) {
  BranchDictionary dict(2);
  for (int i = 0; i < kPairs; ++i) {
    const Tree t1 = Draw();
    const Tree t2 = Draw();
    const BranchProfile p1 = BranchProfile::FromTree(t1, dict);
    const BranchProfile p2 = BranchProfile::FromTree(t2, dict);
    // BDist(T, T) == 0 and PosBDist(T, T, pr) == 0 for every pr.
    EXPECT_EQ(BranchDistance(p1, p1), 0);
    EXPECT_EQ(PositionalBranchDistance(p1, p1, 0), 0);
    EXPECT_EQ(PositionalBranchDistance(p1, p1, 2), 0);
    // L1 distance and matchings are symmetric in the two profiles.
    EXPECT_EQ(BranchDistance(p1, p2), BranchDistance(p2, p1));
    for (const int pr : {0, 1, 3}) {
      EXPECT_EQ(PositionalBranchDistance(p1, p2, pr),
                PositionalBranchDistance(p2, p1, pr));
    }
    EXPECT_EQ(OptimisticBound(p1, p2), OptimisticBound(p2, p1));
  }
}

TEST_F(MetamorphicTest, EditDistanceIsAMetricOnSamples) {
  for (int i = 0; i < kPairs / 2; ++i) {
    const Tree a = Draw();
    const Tree b = Draw();
    const Tree c = Draw();
    const int ab = TreeEditDistance(a, b);
    const int ba = TreeEditDistance(b, a);
    const int bc = TreeEditDistance(b, c);
    const int ac = TreeEditDistance(a, c);
    EXPECT_EQ(TreeEditDistance(a, a), 0);
    EXPECT_EQ(ab, ba);
    EXPECT_GE(ab, 0);
    // Identity of indiscernibles, one direction: distance 0 on distinct
    // sizes is impossible (each size difference costs >= 1 operation).
    if (a.size() != b.size()) {
      EXPECT_GT(ab, 0);
    }
    // Triangle inequality — scripts compose.
    EXPECT_LE(ac, ab + bc) << "triangle violated at sample " << i;
    // Size difference is a trivial lower bound.
    EXPECT_GE(ab, std::abs(a.size() - b.size()));
  }
}

TEST_F(MetamorphicTest, BranchLowerBoundNeverExceedsEditDistance) {
  // Theorem 3.2/3.3: ceil(BDist_q / (4(q-1)+1)) <= EDist, for q = 2 and 3.
  for (const int q : {2, 3}) {
    BranchDictionary dict(q);
    Rng rng(kSeed + static_cast<uint64_t>(q));
    for (int i = 0; i < kPairs; ++i) {
      const Tree t1 = DrawTree(labels_, pool_, rng);
      const Tree t2 = DrawTree(labels_, pool_, rng);
      const BranchProfile p1 = BranchProfile::FromTree(t1, dict);
      const BranchProfile p2 = BranchProfile::FromTree(t2, dict);
      ASSERT_EQ(p1.factor, dict.edit_distance_factor());
      const int bound = BranchDistanceLowerBound(p1, p2);
      const int exact = TreeEditDistance(t1, t2);
      EXPECT_LE(bound, exact)
          << "q=" << q << " BDist=" << BranchDistance(p1, p2)
          << " |T1|=" << t1.size() << " |T2|=" << t2.size();
    }
  }
}

TEST_F(MetamorphicTest, PositionalDistanceIsMonotoneInRadius) {
  BranchDictionary dict(2);
  for (int i = 0; i < kPairs; ++i) {
    const Tree t1 = Draw();
    const Tree t2 = Draw();
    const BranchProfile p1 = BranchProfile::FromTree(t1, dict);
    const BranchProfile p2 = BranchProfile::FromTree(t2, dict);
    const int pr_max = std::max(t1.size(), t2.size());
    int64_t previous = -1;
    for (int pr = 0; pr <= pr_max; ++pr) {
      const int64_t d = PositionalBranchDistance(p1, p2, pr);
      if (previous >= 0) {
        EXPECT_LE(d, previous) << "PosBDist increased at pr=" << pr;
      }
      previous = d;
    }
    // Definition 6: with the positional constraint relaxed past every
    // position difference, PosBDist degenerates to plain BDist.
    EXPECT_EQ(previous, BranchDistance(p1, p2));
  }
}

TEST_F(MetamorphicTest, OptimisticBoundIsSoundAndDominates) {
  // Proposition 4.2: propt <= EDist; and propt dominates both the
  // non-positional bound and the size-difference bound by construction.
  BranchDictionary dict(2);
  for (int i = 0; i < kPairs; ++i) {
    const Tree t1 = Draw();
    const Tree t2 = Draw();
    const BranchProfile p1 = BranchProfile::FromTree(t1, dict);
    const BranchProfile p2 = BranchProfile::FromTree(t2, dict);
    const int exact = TreeEditDistance(t1, t2);
    const int propt = OptimisticBound(p1, p2);
    EXPECT_LE(propt, exact);
    EXPECT_GE(propt, BranchDistanceLowerBound(p1, p2));
    EXPECT_GE(propt, std::abs(t1.size() - t2.size()));
  }
}

TEST_F(MetamorphicTest, RangeFilterNeverPrunesTrueResults) {
  // Section 4.3 completeness: EDist <= tau implies the filter passes. (The
  // converse would be tightness, which the filter does not promise.)
  BranchDictionary dict(2);
  for (int i = 0; i < kPairs; ++i) {
    const Tree t1 = Draw();
    const Tree t2 = Draw();
    const BranchProfile p1 = BranchProfile::FromTree(t1, dict);
    const BranchProfile p2 = BranchProfile::FromTree(t2, dict);
    const int exact = TreeEditDistance(t1, t2);
    for (const int tau : {exact, exact + 1, exact + 5}) {
      EXPECT_TRUE(RangeFilterPasses(p1, p2, tau))
          << "EDist=" << exact << " tau=" << tau;
    }
    // Consistency with the binary search: propt <= tau iff the single
    // evaluation passes.
    const int propt = OptimisticBound(p1, p2);
    EXPECT_TRUE(RangeFilterPasses(p1, p2, propt));
    if (propt > 0) {
      EXPECT_FALSE(RangeFilterPasses(p1, p2, propt - 1))
          << "propt=" << propt;
    }
  }
}

TEST_F(MetamorphicTest, BoundedVerifierContract) {
  // The crisp unit-cost shape the call sites rely on: for every tau >= 0
  // the bounded verifier returns exactly min(EDist, tau + 1) — not just
  // "something above tau" — and 0 for negative tau (where every distance
  // exceeds the threshold).
  for (int i = 0; i < kPairs; ++i) {
    const Tree t1 = Draw();
    const Tree t2 = Draw();
    const int exact = TreeEditDistance(t1, t2);
    for (const int tau :
         {0, 1, exact - 1, exact, exact + 1, exact + 7,
          t1.size() + t2.size() + 3, std::numeric_limits<int>::max()}) {
      if (tau < 0) {
        EXPECT_EQ(BoundedTreeEditDistance(t1, t2, tau), 0);
        continue;
      }
      const int expected =
          tau < exact ? tau + 1 : exact;  // min(exact, tau + 1), no overflow
      EXPECT_EQ(BoundedTreeEditDistance(t1, t2, tau), expected)
          << "tau=" << tau << " EDist=" << exact;
    }
  }
}

TEST_F(MetamorphicTest, BoundedVerifierIsMonotoneInTau) {
  // min(EDist, tau + 1) is nondecreasing in tau and freezes at EDist once
  // the distance fits — so raising a search threshold can only reveal
  // results, never change already-verified ones.
  for (int i = 0; i < kPairs / 4; ++i) {
    const Tree t1 = Draw();
    const Tree t2 = Draw();
    const int tau_max = t1.size() + t2.size() + 1;
    int previous = 0;  // tau = -1 answer
    for (int tau = 0; tau <= tau_max; ++tau) {
      const int b = BoundedTreeEditDistance(t1, t2, tau);
      EXPECT_GE(b, previous) << "answer shrank at tau=" << tau;
      if (previous <= tau - 1 && tau > 0) {
        EXPECT_EQ(b, previous) << "verified answer changed at tau=" << tau;
      }
      previous = b;
    }
    EXPECT_EQ(previous, TreeEditDistance(t1, t2));
  }
}

TEST_F(MetamorphicTest, LowerBoundRejectionImpliesBoundedRejection) {
  // The pipeline's consistency: when the filter's lower bound already
  // exceeds a threshold, the bounded verifier must agree that the distance
  // does too (otherwise filter and verifier could disagree on membership).
  BranchDictionary dict(2);
  for (int i = 0; i < kPairs; ++i) {
    const Tree t1 = Draw();
    const Tree t2 = Draw();
    const BranchProfile p1 = BranchProfile::FromTree(t1, dict);
    const BranchProfile p2 = BranchProfile::FromTree(t2, dict);
    const int bound = BranchDistanceLowerBound(p1, p2);
    if (bound > 0) {
      EXPECT_GT(BoundedTreeEditDistance(t1, t2, bound - 1), bound - 1)
          << "bound=" << bound;
    }
  }
}

/// Non-uniform costs exercising the weighted band scaling: c_min comes
/// from the cheapest operation (relabel), not insert/delete.
class SkewedCosts final : public CostModel {
 public:
  double Relabel(LabelId from, LabelId to) const override {
    return from == to ? 0.0 : 0.5;
  }
  double Insert(LabelId /*label*/) const override { return 1.5; }
  double Delete(LabelId /*label*/) const override { return 2.0; }
  double MinOperationCost() const override { return 0.5; }
};

TEST_F(MetamorphicTest, BoundedWeightedMatchesUnboundedBitwise) {
  // At tau = exact and tau = infinity the weighted verifier must return the
  // exact distance BIT-identically (EXPECT_EQ on doubles, deliberately):
  // the rewired weighted search paths promise byte-identical results, which
  // only holds if no floating-point addition is reordered. Below the exact
  // distance the answer is some value > tau; negative and NaN thresholds
  // reject everything with +infinity.
  const SkewedCosts costs;
  const double inf = std::numeric_limits<double>::infinity();
  for (int i = 0; i < kPairs / 2; ++i) {
    const TedTree v1 = TedTree::FromTree(Draw());
    const TedTree v2 = TedTree::FromTree(Draw());
    const double exact = TreeEditDistanceWeighted(v1, v2, costs);
    EXPECT_EQ(BoundedTreeEditDistanceWeighted(v1, v2, exact, costs), exact);
    EXPECT_EQ(BoundedTreeEditDistanceWeighted(v1, v2, inf, costs), exact);
    EXPECT_EQ(BoundedTreeEditDistanceWeighted(v1, v2, exact + 0.25, costs),
              exact);
    if (exact > 0.0) {
      // Costs are multiples of 0.5 (exactly representable), so exact - 0.125
      // is a threshold strictly below the distance. The rejection value is
      // the unclamped banded recurrence's, which every +infinity
      // out-of-band read keeps >= the distance, or the exact distance when
      // the call delegates to the full-width one — either way > tau.
      EXPECT_GT(BoundedTreeEditDistanceWeighted(v1, v2, exact - 0.125, costs),
                exact - 0.125);
    }
    EXPECT_EQ(BoundedTreeEditDistanceWeighted(v1, v2, -1.0, costs), inf);
    EXPECT_EQ(BoundedTreeEditDistanceWeighted(
                  v1, v2, std::numeric_limits<double>::quiet_NaN(), costs),
              inf);
  }
}

TEST_F(MetamorphicTest, WeightedScaledUnitBoundIsSound) {
  // The weighted pipeline's pruning rule (search/similarity_search.cc): a
  // unit lower bound of b implies weighted distance >= c_min * b. The
  // bounded weighted verifier must agree with every threshold that rule
  // prunes at.
  BranchDictionary dict(2);
  const SkewedCosts costs;
  const double c_min = costs.MinOperationCost();
  for (int i = 0; i < kPairs; ++i) {
    const Tree t1 = Draw();
    const Tree t2 = Draw();
    const BranchProfile p1 = BranchProfile::FromTree(t1, dict);
    const BranchProfile p2 = BranchProfile::FromTree(t2, dict);
    const TedTree v1 = TedTree::FromTree(t1);
    const TedTree v2 = TedTree::FromTree(t2);
    const int bound = BranchDistanceLowerBound(p1, p2);
    const double exact = TreeEditDistanceWeighted(v1, v2, costs);
    EXPECT_GE(exact, c_min * static_cast<double>(bound) - 1e-9);
    if (bound > 0) {
      const double tau = c_min * static_cast<double>(bound) - 0.125;
      EXPECT_GT(BoundedTreeEditDistanceWeighted(v1, v2, tau, costs), tau)
          << "bound=" << bound;
    }
  }
}

}  // namespace
}  // namespace treesim
