#include "core/branch_profile.h"

#include <memory>
#include <vector>

#include "core/positional.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "ted/zhang_shasha.h"

namespace treesim {
namespace {

using testing::MakeLabelPool;
using testing::MakeTree;
using testing::RandomTree;

TEST(BranchProfileTest, EntriesSortedWithPositions) {
  auto dict = std::make_shared<LabelDictionary>();
  Tree t = MakeTree("a{b{c d} b{c d} e}", dict);
  BranchDictionary branches(2);
  const BranchProfile p = BranchProfile::FromTree(t, branches);
  EXPECT_EQ(p.tree_size, 8);
  EXPECT_EQ(p.q, 2);
  EXPECT_EQ(p.factor, 5);
  EXPECT_EQ(p.total_count(), 8);
  for (size_t i = 1; i < p.entries.size(); ++i) {
    EXPECT_LT(p.entries[i - 1].branch, p.entries[i].branch);
  }
  for (const BranchEntry& e : p.entries) {
    for (size_t i = 1; i < e.occurrences.size(); ++i) {
      EXPECT_LT(e.occurrences[i - 1].first, e.occurrences[i].first);
    }
  }
}

TEST(BranchProfileTest, QueryProfileKeepsEveryBoundAndTheDictionary) {
  // FromQuery only reads its dictionary and folds every unseen branch into
  // kUnseenBranch, yet against every database profile it gives the bounds
  // an interning profile gives: unseen branches match no database branch
  // either way.
  auto labels = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> db_labels = MakeLabelPool(labels, 3);
  std::vector<LabelId> query_labels = db_labels;
  query_labels.push_back(labels->Intern("unseen"));
  Rng rng(97);
  std::vector<Tree> trees;
  for (int i = 0; i < 30; ++i) {
    trees.push_back(RandomTree(rng.UniformInt(1, 20), db_labels, labels, rng));
  }
  for (const int q : {2, 3}) {
    BranchDictionary frozen(q);
    BranchDictionary interning(q);  // same trees in the same order: same ids
    std::vector<BranchProfile> data;
    for (const Tree& t : trees) {
      data.push_back(BranchProfile::FromTree(t, frozen));
      static_cast<void>(BranchProfile::FromTree(t, interning));
    }
    const size_t built = frozen.size();
    for (int i = 0; i < 20; ++i) {
      const Tree query =
          RandomTree(rng.UniformInt(1, 20), query_labels, labels, rng);
      const BranchProfile looked_up = BranchProfile::FromQuery(query, frozen);
      const BranchProfile interned = BranchProfile::FromTree(query, interning);
      EXPECT_TRUE(looked_up.ValidateInvariants().ok());
      for (const BranchProfile& p : data) {
        EXPECT_EQ(BranchDistance(looked_up, p), BranchDistance(interned, p));
        EXPECT_EQ(OptimisticBound(looked_up, p),
                  OptimisticBound(interned, p));
      }
    }
    EXPECT_EQ(frozen.size(), built) << "q=" << q;
  }
}

TEST(BranchDistanceTest, PaperExampleIsNine) {
  // From the Fig. 3(b) vectors: |BRV(T1) - BRV(T2)|_1 = 9.
  auto dict = std::make_shared<LabelDictionary>();
  Tree t1 = MakeTree("a{b{c d} b{c d} e}", dict);
  Tree t2 = MakeTree("a{b{c d b{e}} c d e}", dict);
  BranchDictionary branches(2);
  const BranchProfile p1 = BranchProfile::FromTree(t1, branches);
  const BranchProfile p2 = BranchProfile::FromTree(t2, branches);
  EXPECT_EQ(BranchDistance(p1, p2), 9);
  EXPECT_EQ(BranchDistance(p2, p1), 9);
  EXPECT_EQ(BranchDistanceLowerBound(p1, p2), 2);  // ceil(9/5)
}

TEST(BranchDistanceTest, IdenticalTreesAreZero) {
  auto dict = std::make_shared<LabelDictionary>();
  Tree t1 = MakeTree("a{b{c} d}", dict);
  Tree t2 = MakeTree("a{b{c} d}", dict);
  BranchDictionary branches(2);
  const BranchProfile p1 = BranchProfile::FromTree(t1, branches);
  const BranchProfile p2 = BranchProfile::FromTree(t2, branches);
  EXPECT_EQ(BranchDistance(p1, p2), 0);
}

TEST(BranchDistanceTest, NotAMetric_DistinctTreesWithZeroDistance) {
  // The Fig. 4 phenomenon: BDist is a pseudo-metric. These two trees have
  // identical branch multisets {r(a,ε), a(b,b), b(ε,ε), b(a,ε), a(ε,ε)}.
  auto dict = std::make_shared<LabelDictionary>();
  Tree t1 = MakeTree("r{a{b} b{a}}", dict);
  Tree t2 = MakeTree("r{a{b{a}} b}", dict);
  BranchDictionary branches(2);
  const BranchProfile p1 = BranchProfile::FromTree(t1, branches);
  const BranchProfile p2 = BranchProfile::FromTree(t2, branches);
  EXPECT_EQ(BranchDistance(p1, p2), 0);
  EXPECT_FALSE(t1.StructurallyEquals(t2));
  EXPECT_GT(TreeEditDistance(t1, t2), 0);
}

TEST(BranchDistanceTest, ThreeLevelBranchesSeparateTheZeroPair) {
  // Higher q encodes more structure (Section 3.4): the same pair is
  // distinguished at q = 3.
  auto dict = std::make_shared<LabelDictionary>();
  Tree t1 = MakeTree("r{a{b} b{a}}", dict);
  Tree t2 = MakeTree("r{a{b{a}} b}", dict);
  BranchDictionary branches(3);
  const BranchProfile p1 = BranchProfile::FromTree(t1, branches);
  const BranchProfile p2 = BranchProfile::FromTree(t2, branches);
  EXPECT_GT(BranchDistance(p1, p2), 0);
}

TEST(BranchDistanceTest, MetricPropertiesOnRandomTrees) {
  auto dict = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(dict, 3);
  Rng rng(89);
  BranchDictionary branches(2);
  for (int trial = 0; trial < 30; ++trial) {
    Tree a = RandomTree(rng.UniformInt(1, 30), pool, dict, rng);
    Tree b = RandomTree(rng.UniformInt(1, 30), pool, dict, rng);
    Tree c = RandomTree(rng.UniformInt(1, 30), pool, dict, rng);
    const BranchProfile pa = BranchProfile::FromTree(a, branches);
    const BranchProfile pb = BranchProfile::FromTree(b, branches);
    const BranchProfile pc = BranchProfile::FromTree(c, branches);
    const int64_t ab = BranchDistance(pa, pb);
    EXPECT_EQ(ab, BranchDistance(pb, pa));                    // symmetry
    EXPECT_EQ(BranchDistance(pa, pa), 0);                     // identity
    EXPECT_LE(ab, BranchDistance(pa, pc) + BranchDistance(pc, pb));
    EXPECT_GE(ab, 0);
  }
}

TEST(BranchDistanceTest, DisjointVocabulariesSumCounts) {
  auto dict = std::make_shared<LabelDictionary>();
  Tree t1 = MakeTree("a{a a}", dict);
  Tree t2 = MakeTree("x{y{z}}", dict);
  BranchDictionary branches(2);
  const BranchProfile p1 = BranchProfile::FromTree(t1, branches);
  const BranchProfile p2 = BranchProfile::FromTree(t2, branches);
  EXPECT_EQ(BranchDistance(p1, p2), t1.size() + t2.size());
}

TEST(BranchDistanceTest, HigherLevelsGrowTheDistance) {
  // BDist_Q is non-decreasing in q for a fixed pair (more structure in each
  // branch means fewer accidental matches).
  auto dict = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(dict, 3);
  Rng rng(97);
  for (int trial = 0; trial < 15; ++trial) {
    Tree a = RandomTree(rng.UniformInt(2, 25), pool, dict, rng);
    Tree b = RandomTree(rng.UniformInt(2, 25), pool, dict, rng);
    int64_t prev = -1;
    for (int q = 2; q <= 4; ++q) {
      BranchDictionary branches(q);
      const int64_t d =
          BranchDistance(BranchProfile::FromTree(a, branches),
                         BranchProfile::FromTree(b, branches));
      if (prev >= 0) {
        EXPECT_GE(d, prev);
      }
      prev = d;
    }
  }
}

TEST(BranchDistanceDeathTest, MixedLevelsAbort) {
  auto dict = std::make_shared<LabelDictionary>();
  Tree t = MakeTree("a{b}", dict);
  BranchDictionary b2(2);
  BranchDictionary b3(3);
  const BranchProfile p2 = BranchProfile::FromTree(t, b2);
  const BranchProfile p3 = BranchProfile::FromTree(t, b3);
  EXPECT_DEATH((void)BranchDistance(p2, p3), "different levels");
}

}  // namespace
}  // namespace treesim
