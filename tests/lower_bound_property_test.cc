// Property tests for the paper's central claims: Theorem 3.2 (BDist is at
// most 5x the edit distance), Theorem 3.3 (the q-level generalization),
// Proposition 4.1 (mapping displacement) and Proposition 4.2 / the
// SearchLBound optimistic bound (positional distances stay sound).
#include <algorithm>
#include <memory>

#include "gtest/gtest.h"
#include "core/branch_profile.h"
#include "core/positional.h"
#include "datagen/edit_noise.h"
#include "ted/edit_operation.h"
#include "ted/zhang_shasha.h"
#include "test_util.h"
#include "tree/bracket.h"

namespace treesim {
namespace {

using testing::MakeLabelPool;
using testing::MakeTree;
using testing::RandomTree;

struct PropertyCase {
  int label_count;
  int max_size;
};

class LowerBoundPropertyTest
    : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(LowerBoundPropertyTest, Theorem32_BDistAtMost5TimesEDist) {
  const PropertyCase param = GetParam();
  auto dict = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(dict, param.label_count);
  Rng rng(1000 + param.label_count * 100 + param.max_size);
  BranchDictionary branches(2);
  for (int trial = 0; trial < 60; ++trial) {
    Tree a = RandomTree(rng.UniformInt(1, param.max_size), pool, dict, rng);
    Tree b = RandomTree(rng.UniformInt(1, param.max_size), pool, dict, rng);
    const int edist = TreeEditDistance(a, b);
    const int64_t bdist =
        BranchDistance(BranchProfile::FromTree(a, branches),
                       BranchProfile::FromTree(b, branches));
    EXPECT_LE(bdist, 5 * static_cast<int64_t>(edist))
        << ToBracket(a) << " vs " << ToBracket(b);
  }
}

TEST_P(LowerBoundPropertyTest, Theorem33_QLevelBound) {
  const PropertyCase param = GetParam();
  auto dict = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(dict, param.label_count);
  Rng rng(2000 + param.label_count * 100 + param.max_size);
  for (int q = 2; q <= 4; ++q) {
    BranchDictionary branches(q);
    const int factor = branches.edit_distance_factor();
    for (int trial = 0; trial < 25; ++trial) {
      Tree a = RandomTree(rng.UniformInt(1, param.max_size), pool, dict, rng);
      Tree b = RandomTree(rng.UniformInt(1, param.max_size), pool, dict, rng);
      const int edist = TreeEditDistance(a, b);
      const int64_t bdist =
          BranchDistance(BranchProfile::FromTree(a, branches),
                         BranchProfile::FromTree(b, branches));
      EXPECT_LE(bdist, static_cast<int64_t>(factor) * edist)
          << "q=" << q << " " << ToBracket(a) << " vs " << ToBracket(b);
    }
  }
}

TEST_P(LowerBoundPropertyTest, OptimisticBoundNeverExceedsEDist) {
  const PropertyCase param = GetParam();
  auto dict = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(dict, param.label_count);
  Rng rng(3000 + param.label_count * 100 + param.max_size);
  for (int q = 2; q <= 3; ++q) {
    BranchDictionary branches(q);
    for (int trial = 0; trial < 40; ++trial) {
      Tree a = RandomTree(rng.UniformInt(1, param.max_size), pool, dict, rng);
      Tree b = RandomTree(rng.UniformInt(1, param.max_size), pool, dict, rng);
      const BranchProfile pa = BranchProfile::FromTree(a, branches);
      const BranchProfile pb = BranchProfile::FromTree(b, branches);
      const int edist = TreeEditDistance(a, b);
      const int propt = OptimisticBound(pa, pb);
      EXPECT_LE(propt, edist)
          << "q=" << q << " " << ToBracket(a) << " vs " << ToBracket(b);
      EXPECT_GE(propt, BranchDistanceLowerBound(pa, pb));
    }
  }
}

TEST_P(LowerBoundPropertyTest, Proposition42_RangeFilterNeverDropsResults) {
  const PropertyCase param = GetParam();
  auto dict = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(dict, param.label_count);
  Rng rng(4000 + param.label_count * 100 + param.max_size);
  BranchDictionary branches(2);
  for (int trial = 0; trial < 40; ++trial) {
    Tree a = RandomTree(rng.UniformInt(1, param.max_size), pool, dict, rng);
    Tree b = RandomTree(rng.UniformInt(1, param.max_size), pool, dict, rng);
    const BranchProfile pa = BranchProfile::FromTree(a, branches);
    const BranchProfile pb = BranchProfile::FromTree(b, branches);
    const int edist = TreeEditDistance(a, b);
    for (int tau = edist; tau <= edist + 3; ++tau) {
      // EDist <= tau, so the filter MUST pass (no false negatives).
      EXPECT_TRUE(RangeFilterPasses(pa, pb, tau));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LowerBoundPropertyTest,
    ::testing::Values(PropertyCase{1, 12},   // pure structure, tiny
                      PropertyCase{2, 20},   // few labels
                      PropertyCase{4, 30},   // mixed
                      PropertyCase{8, 45},   // paper-like label count
                      PropertyCase{20, 25}), // label-rich
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      return "L" + std::to_string(info.param.label_count) + "_n" +
             std::to_string(info.param.max_size);
    });

TEST(SingleOperationTest, Theorem32CaseSplit) {
  // Relabel changes BDist by at most 4; insert/delete by at most 5.
  auto dict = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(dict, 4);
  Rng rng(271);
  BranchDictionary branches(2);
  int relabels = 0;
  int inserts = 0;
  int deletes = 0;
  for (int trial = 0; trial < 400; ++trial) {
    Tree t = RandomTree(rng.UniformInt(2, 35), pool, dict, rng);
    const EditOperation op = RandomEditOperation(t, pool, rng);
    StatusOr<Tree> edited = ApplyEditOperation(t, op);
    ASSERT_TRUE(edited.ok());
    const int64_t delta =
        BranchDistance(BranchProfile::FromTree(t, branches),
                       BranchProfile::FromTree(*edited, branches));
    switch (op.kind) {
      case EditOperation::Kind::kRelabel:
        EXPECT_LE(delta, 4) << ToBracket(t) << " op "
                            << ToString(op, *dict);
        ++relabels;
        break;
      case EditOperation::Kind::kInsert:
        EXPECT_LE(delta, 5) << ToBracket(t) << " op "
                            << ToString(op, *dict);
        ++inserts;
        break;
      case EditOperation::Kind::kDelete:
        EXPECT_LE(delta, 5) << ToBracket(t) << " op "
                            << ToString(op, *dict);
        ++deletes;
        break;
    }
  }
  // All three cases exercised.
  EXPECT_GT(relabels, 50);
  EXPECT_GT(inserts, 50);
  EXPECT_GT(deletes, 50);
}

TEST(SingleOperationTest, QLevelCaseSplit) {
  // One operation changes BDist_Q by at most 4(q-1)+1.
  auto dict = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(dict, 4);
  Rng rng(277);
  for (int q = 2; q <= 4; ++q) {
    BranchDictionary branches(q);
    const int factor = branches.edit_distance_factor();
    for (int trial = 0; trial < 120; ++trial) {
      Tree t = RandomTree(rng.UniformInt(2, 30), pool, dict, rng);
      const EditOperation op = RandomEditOperation(t, pool, rng);
      StatusOr<Tree> edited = ApplyEditOperation(t, op);
      ASSERT_TRUE(edited.ok());
      const int64_t delta =
          BranchDistance(BranchProfile::FromTree(t, branches),
                         BranchProfile::FromTree(*edited, branches));
      EXPECT_LE(delta, factor)
          << "q=" << q << " " << ToBracket(t) << " op " << ToString(op, *dict);
    }
  }
}

TEST(EditScriptBoundTest, ScriptsOfKnownLengthRespectAllBounds) {
  // Derive trees by scripts of known length k; every lower bound must stay
  // below k (since EDist <= k), without ever computing EDist.
  auto dict = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(dict, 5);
  Rng rng(281);
  for (int trial = 0; trial < 60; ++trial) {
    Tree t = RandomTree(rng.UniformInt(5, 60), pool, dict, rng);
    const int k = rng.UniformInt(0, 8);
    const NoisyTree noisy = ApplyRandomEdits(t, k, pool, rng);
    for (int q = 2; q <= 3; ++q) {
      BranchDictionary branches(q);
      const BranchProfile pa = BranchProfile::FromTree(t, branches);
      const BranchProfile pb = BranchProfile::FromTree(noisy.tree, branches);
      EXPECT_LE(BranchDistance(pa, pb),
                static_cast<int64_t>(branches.edit_distance_factor()) * k);
      EXPECT_LE(BranchDistanceLowerBound(pa, pb), k);
      EXPECT_LE(OptimisticBound(pa, pb), k);
      // Proposition 4.2 contrapositive at l = k.
      EXPECT_LE(PositionalBranchDistance(pa, pb, k),
                static_cast<int64_t>(branches.edit_distance_factor()) * k);
    }
  }
}

TEST(Proposition41Test, MappedNodePositionsShiftByAtMostEDist) {
  // Indirect check of Proposition 4.1 via the positional filter at
  // pr = EDist: PosBDist(EDist) <= 5 * EDist must hold with EXACT matching
  // (which trees of <= 25 nodes always get: their grids stay under 64x64),
  // which is precisely "the edit mapping only pairs nodes whose preorder
  // and postorder positions differ by <= EDist".
  auto dict = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(dict, 3);
  Rng rng(283);
  BranchDictionary branches(2);
  for (int trial = 0; trial < 60; ++trial) {
    Tree a = RandomTree(rng.UniformInt(1, 25), pool, dict, rng);
    Tree b = RandomTree(rng.UniformInt(1, 25), pool, dict, rng);
    const int edist = TreeEditDistance(a, b);
    const BranchProfile pa = BranchProfile::FromTree(a, branches);
    const BranchProfile pb = BranchProfile::FromTree(b, branches);
    EXPECT_LE(PositionalBranchDistance(pa, pb, edist),
              5 * static_cast<int64_t>(edist))
        << ToBracket(a) << " vs " << ToBracket(b);
  }
}

// The Section 2.1 extension: with a general cost model whose operations all
// cost at least c_min, scaling the unit-cost lower bound by c_min stays a
// lower bound of the weighted edit distance (any weighted-optimal script
// has at least EDist_unit operations, each costing >= c_min).
class SkewedCostModel final : public CostModel {
 public:
  double Relabel(LabelId a, LabelId b) const override {
    if (a == b) return 0.0;
    return 0.5 + 0.25 * ((a + b) % 3);  // 0.5 / 0.75 / 1.0
  }
  double Insert(LabelId l) const override { return 0.5 + 0.5 * (l % 2); }
  double Delete(LabelId l) const override { return 0.5 + 0.25 * (l % 3); }
  double MinOperationCost() const override { return 0.5; }
};

TEST(WeightedCostExtensionTest, ScaledBoundsStaySound) {
  auto dict = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(dict, 4);
  Rng rng(307);
  BranchDictionary branches(2);
  const SkewedCostModel costs;
  for (int trial = 0; trial < 50; ++trial) {
    Tree a = RandomTree(rng.UniformInt(1, 22), pool, dict, rng);
    Tree b = RandomTree(rng.UniformInt(1, 22), pool, dict, rng);
    const double weighted = TreeEditDistanceWeighted(
        TedTree::FromTree(a), TedTree::FromTree(b), costs);
    const BranchProfile pa = BranchProfile::FromTree(a, branches);
    const BranchProfile pb = BranchProfile::FromTree(b, branches);
    const double c_min = costs.MinOperationCost();
    EXPECT_LE(c_min * BranchDistanceLowerBound(pa, pb), weighted + 1e-9)
        << ToBracket(a) << " vs " << ToBracket(b);
    EXPECT_LE(c_min * OptimisticBound(pa, pb), weighted + 1e-9)
        << ToBracket(a) << " vs " << ToBracket(b);
    // And the weighted distance itself is sandwiched sanely.
    EXPECT_LE(weighted, 1.0 * (a.size() + b.size()));
    EXPECT_GE(weighted + 1e-9, c_min * std::abs(a.size() - b.size()));
  }
}

TEST(TightnessTest, BoundsAreAttainedSomewhere) {
  // The 5x factor is not vacuous: find pairs where BDist/EDist > 3 and
  // pairs where the optimistic bound equals EDist exactly.
  auto dict = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(dict, 3);
  Rng rng(293);
  BranchDictionary branches(2);
  double best_ratio = 0;
  int exact_hits = 0;
  for (int trial = 0; trial < 300; ++trial) {
    Tree a = RandomTree(rng.UniformInt(2, 20), pool, dict, rng);
    Tree b = RandomTree(rng.UniformInt(2, 20), pool, dict, rng);
    const int edist = TreeEditDistance(a, b);
    if (edist == 0) continue;
    const BranchProfile pa = BranchProfile::FromTree(a, branches);
    const BranchProfile pb = BranchProfile::FromTree(b, branches);
    best_ratio = std::max(
        best_ratio, static_cast<double>(BranchDistance(pa, pb)) / edist);
    if (OptimisticBound(pa, pb) == edist) ++exact_hits;
  }
  EXPECT_GT(best_ratio, 2.0);
  EXPECT_GT(exact_hits, 0);
}

}  // namespace
}  // namespace treesim
