#include "core/positional.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "test_util.h"
#include "ted/zhang_shasha.h"

namespace treesim {
namespace {

using testing::MakeLabelPool;
using testing::MakeTree;
using testing::RandomTree;

class PaperPairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dict_ = std::make_shared<LabelDictionary>();
    t1_ = MakeTree("a{b{c d} b{c d} e}", dict_);
    t2_ = MakeTree("a{b{c d b{e}} c d e}", dict_);
    branches_ = std::make_unique<BranchDictionary>(2);
    p1_ = BranchProfile::FromTree(t1_, *branches_);
    p2_ = BranchProfile::FromTree(t2_, *branches_);
  }

  const BranchEntry* FindEntry(const BranchProfile& p,
                               const std::string& name) {
    for (const BranchEntry& e : p.entries) {
      if (branches_->Name(e.branch, *dict_) == name) return &e;
    }
    return nullptr;
  }

  std::shared_ptr<LabelDictionary> dict_;
  Tree t1_, t2_;
  std::unique_ptr<BranchDictionary> branches_;
  BranchProfile p1_, p2_;
};

TEST_F(PaperPairTest, Section42MatchingExamples) {
  // "(BiB(c,ε,d),3,1) in T1 can only be mapped to (BiB(c,ε,d),3,1) in T2;
  //  (BiB(c,ε,d),6,4) and (BiB(c,ε,d),7,6) cannot be mapped to each other"
  // at pr = 1.
  const BranchEntry* c1 = FindEntry(p1_, "c(\xCE\xB5,d)");
  const BranchEntry* c2 = FindEntry(p2_, "c(\xCE\xB5,d)");
  ASSERT_NE(c1, nullptr);
  ASSERT_NE(c2, nullptr);
  EXPECT_EQ(c1->occurrences,
            (std::vector<std::pair<int, int>>{{3, 1}, {6, 4}}));
  EXPECT_EQ(c2->occurrences,
            (std::vector<std::pair<int, int>>{{3, 1}, {7, 6}}));
  EXPECT_EQ(MaxPositionalMatching(*c1, *c2, 1), 1);

  // "(BiB(e,ε,ε),8,7) in T1 can be mapped to (...,9,8) in T2, but cannot be
  //  mapped to (...,6,3)".
  const BranchEntry* e1 = FindEntry(p1_, "e(\xCE\xB5,\xCE\xB5)");
  const BranchEntry* e2 = FindEntry(p2_, "e(\xCE\xB5,\xCE\xB5)");
  ASSERT_NE(e1, nullptr);
  ASSERT_NE(e2, nullptr);
  EXPECT_EQ(e1->occurrences, (std::vector<std::pair<int, int>>{{8, 7}}));
  EXPECT_EQ(e2->occurrences,
            (std::vector<std::pair<int, int>>{{6, 3}, {9, 8}}));
  EXPECT_EQ(MaxPositionalMatching(*e1, *e2, 1), 1);
  EXPECT_EQ(MaxPositionalMatching(*e1, *e2, 0), 0);
}

TEST_F(PaperPairTest, PosBDistShrinksToBDist) {
  int64_t prev = -1;
  for (int pr = 0; pr <= 10; ++pr) {
    const int64_t d = PositionalBranchDistance(p1_, p2_, pr);
    if (prev >= 0) {
      EXPECT_LE(d, prev) << "pr=" << pr;
    }
    prev = d;
  }
  // At pr >= max size every equal pair matches: PosBDist == BDist == 9.
  EXPECT_EQ(PositionalBranchDistance(p1_, p2_, 9), BranchDistance(p1_, p2_));
}

TEST_F(PaperPairTest, OptimisticBoundIsSoundAndAtLeastPlainBound) {
  const int propt = OptimisticBound(p1_, p2_);
  const int edist = TreeEditDistance(t1_, t2_);
  EXPECT_LE(propt, edist);
  EXPECT_GE(propt, BranchDistanceLowerBound(p1_, p2_));
  EXPECT_GE(propt, std::abs(p1_.tree_size - p2_.tree_size));
}

TEST(MaxMatching1DTest, BasicCases) {
  EXPECT_EQ(MaxMatching1D({1, 2, 3}, {1, 2, 3}, 0), 3);
  EXPECT_EQ(MaxMatching1D({1, 2, 3}, {4, 5, 6}, 0), 0);
  EXPECT_EQ(MaxMatching1D({1, 2, 3}, {4, 5, 6}, 3), 3);
  EXPECT_EQ(MaxMatching1D({1, 5, 9}, {2, 6}, 1), 2);
  EXPECT_EQ(MaxMatching1D({}, {1, 2}, 5), 0);
  EXPECT_EQ(MaxMatching1D({1}, {}, 5), 0);
}

TEST(MaxMatching1DTest, GreedyIsOptimalOnOverlaps) {
  // x=5 could grab y=4 or y=6; either way both xs match.
  EXPECT_EQ(MaxMatching1D({3, 5}, {4, 6}, 1), 2);
  // One y shared by two xs: only one can match.
  EXPECT_EQ(MaxMatching1D({4, 6}, {5}, 1), 1);
}

TEST(MaxMatchingExactTest, RespectsBothDimensions) {
  // Pre positions match within 1 but post positions are far.
  const std::vector<std::pair<int, int>> a = {{1, 10}};
  const std::vector<std::pair<int, int>> b = {{2, 1}};
  EXPECT_EQ(MaxMatchingExact(a, b, 1), 0);
  EXPECT_EQ(MaxMatchingExact(a, b, 9), 1);
}

TEST(MaxMatchingExactTest, AugmentingPathReassigns) {
  // a0 can take b0 or b1; a1 can only take b0. Exact matching finds 2 by
  // rerouting a0 to b1.
  const std::vector<std::pair<int, int>> a = {{5, 5}, {4, 4}};
  const std::vector<std::pair<int, int>> b = {{4, 4}, {6, 6}};
  EXPECT_EQ(MaxMatchingExact(a, b, 1), 2);
}

TEST(MaxPositionalMatchingTest, ExactOnGridsUpTo64x64) {
  // No tree here has more than 40 nodes, so every shared occurrence grid is
  // at most 40x40 and MaxPositionalMatching is Kuhn's exact matching.
  // PositionalFallbackTest covers the grids past 64x64.
  auto dict = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(dict, 2);
  Rng rng(101);
  BranchDictionary branches(2);
  for (int trial = 0; trial < 40; ++trial) {
    Tree a = RandomTree(rng.UniformInt(4, 40), pool, dict, rng);
    Tree b = RandomTree(rng.UniformInt(4, 40), pool, dict, rng);
    const BranchProfile pa = BranchProfile::FromTree(a, branches);
    const BranchProfile pb = BranchProfile::FromTree(b, branches);
    for (int pr = 0; pr <= 8; pr += 2) {
      for (size_t i = 0, j = 0; i < pa.entries.size() && j < pb.entries.size();) {
        if (pa.entries[i].branch < pb.entries[j].branch) {
          ++i;
        } else if (pa.entries[i].branch > pb.entries[j].branch) {
          ++j;
        } else {
          const BranchEntry& ea = pa.entries[i];
          const BranchEntry& eb = pb.entries[j];
          EXPECT_EQ(MaxPositionalMatching(ea, eb, pr),
                    MaxMatchingExact(ea.occurrences, eb.occurrences, pr));
          ++i;
          ++j;
        }
      }
    }
  }
}

TEST(PositionalDistanceTest, IdenticalTreesZeroAtPrZero) {
  auto dict = std::make_shared<LabelDictionary>();
  Tree a = MakeTree("a{b{c} d}", dict);
  Tree b = MakeTree("a{b{c} d}", dict);
  BranchDictionary branches(2);
  const BranchProfile pa = BranchProfile::FromTree(a, branches);
  const BranchProfile pb = BranchProfile::FromTree(b, branches);
  EXPECT_EQ(PositionalBranchDistance(pa, pb, 0), 0);
  EXPECT_EQ(OptimisticBound(pa, pb), 0);
}

TEST(PositionalDistanceTest, AtLeastBranchDistance) {
  auto dict = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(dict, 3);
  Rng rng(103);
  BranchDictionary branches(2);
  for (int trial = 0; trial < 30; ++trial) {
    Tree a = RandomTree(rng.UniformInt(1, 30), pool, dict, rng);
    Tree b = RandomTree(rng.UniformInt(1, 30), pool, dict, rng);
    const BranchProfile pa = BranchProfile::FromTree(a, branches);
    const BranchProfile pb = BranchProfile::FromTree(b, branches);
    const int64_t bdist = BranchDistance(pa, pb);
    for (int pr = 0; pr <= 35; pr += 7) {
      EXPECT_GE(PositionalBranchDistance(pa, pb, pr), bdist);
    }
    EXPECT_EQ(PositionalBranchDistance(pa, pb,
                                       std::max(a.size(), b.size())),
              bdist);
  }
}

TEST(RangeFilterTest, EquivalentToOptimisticBoundDecision) {
  // Section 4.3: the single PosBDist(tau) test accepts exactly when
  // propt <= tau.
  auto dict = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(dict, 3);
  Rng rng(107);
  BranchDictionary branches(2);
  for (int trial = 0; trial < 30; ++trial) {
    Tree a = RandomTree(rng.UniformInt(1, 25), pool, dict, rng);
    Tree b = RandomTree(rng.UniformInt(1, 25), pool, dict, rng);
    const BranchProfile pa = BranchProfile::FromTree(a, branches);
    const BranchProfile pb = BranchProfile::FromTree(b, branches);
    const int propt = OptimisticBound(pa, pb);
    for (int tau = 0; tau <= 12; ++tau) {
      EXPECT_EQ(RangeFilterPasses(pa, pb, tau),
                propt <= tau)
          << "tau=" << tau << " propt=" << propt;
    }
  }
}

/// A star whose root `a` has `leaves` leaves labelled b; when `relabel` is
/// positive, every relabel-th leaf is labelled c instead.
std::string Star(int leaves, int relabel) {
  std::string s = "a{";
  for (int i = 1; i <= leaves; ++i) {
    if (i > 1) s += ' ';
    s += (relabel > 0 && i % relabel == 0) ? 'c' : 'b';
  }
  return s + "}";
}

/// A path of `nodes` nodes labelled a, each the only child of the one
/// before; when `relabel` is positive, every relabel-th node is labelled b.
std::string Chain(int nodes, int relabel) {
  std::string s;
  for (int i = 1; i <= nodes; ++i) {
    if (i > 1) s += '{';
    s += (relabel > 0 && i % relabel == 0) ? 'b' : 'a';
  }
  return s + std::string(static_cast<size_t>(nodes - 1), '}');
}

TEST(PositionalFallbackTest, LargeGridsKeepEveryBoundSound) {
  // Each pair shares a branch that occurs 79-89 times in one tree and 57-65
  // times in the other: an occurrence grid past 64x64, where
  // MaxPositionalMatching leaves Kuhn's search for the min of the two 1-D
  // matchings. Nothing else reaches that fallback. A star of same-labelled
  // leaves against one with every 7th leaf relabelled shares b(ε,b), whose
  // postorders ascend with its preorders. A chain of `a` nodes against one
  // with every 7th node relabelled shares a(a,ε), whose postorders descend
  // as its preorders ascend, so the fallback must sort them.
  struct Shape {
    const char* name;
    std::string (*make)(int, int);
  };
  for (const Shape& shape : {Shape{"star", Star}, Shape{"chain", Chain}}) {
    auto dict = std::make_shared<LabelDictionary>();
    for (const int n : {80, 85, 90}) {
      for (const int m : {80, 85, 90}) {
        SCOPED_TRACE(std::string(shape.name) + " n=" + std::to_string(n) +
                     " m=" + std::to_string(m));
        const Tree a = MakeTree(shape.make(n, 0), dict);
        const Tree b = MakeTree(shape.make(m, 7), dict);
        BranchDictionary branches(2);
        const BranchProfile pa = BranchProfile::FromTree(a, branches);
        const BranchProfile pb = BranchProfile::FromTree(b, branches);
        int64_t largest_grid = 0;
        for (const BranchEntry& ea : pa.entries) {
          for (const BranchEntry& eb : pb.entries) {
            if (ea.branch != eb.branch) continue;
            largest_grid = std::max<int64_t>(
                largest_grid, static_cast<int64_t>(ea.count()) * eb.count());
            // The fallback relaxes the 2-D matching, so it never matches
            // fewer pairs than the exact one.
            for (const int pr : {0, 1, 3, 10, 30}) {
              EXPECT_GE(MaxPositionalMatching(ea, eb, pr),
                        MaxMatchingExact(ea.occurrences, eb.occurrences, pr))
                  << "pr=" << pr;
            }
          }
        }
        ASSERT_GT(largest_grid, 64 * 64);

        const int edist = TreeEditDistance(a, b);
        EXPECT_LE(OptimisticBound(pa, pb), edist);
        EXPECT_TRUE(RangeFilterPasses(pa, pb, edist)) << "EDist=" << edist;
        int64_t previous = PositionalBranchDistance(pa, pb, 0);
        for (int pr = 1; pr <= std::max(n, m) + 1; ++pr) {
          const int64_t d = PositionalBranchDistance(pa, pb, pr);
          EXPECT_LE(d, previous) << "PosBDist increased at pr=" << pr;
          previous = d;
        }
        EXPECT_EQ(previous, BranchDistance(pa, pb));
      }
    }
  }
}

TEST(RangeFilterTest, NegativeTauNeverPasses) {
  auto dict = std::make_shared<LabelDictionary>();
  Tree a = MakeTree("a", dict);
  Tree b = MakeTree("a", dict);
  BranchDictionary branches(2);
  const BranchProfile pa = BranchProfile::FromTree(a, branches);
  const BranchProfile pb = BranchProfile::FromTree(b, branches);
  EXPECT_FALSE(RangeFilterPasses(pa, pb, -1));
  EXPECT_TRUE(RangeFilterPasses(pa, pb, 0));
}

}  // namespace
}  // namespace treesim
