// End-to-end walkthrough of the paper's running example (Figures 1-3 and the
// Section 4.2 positional discussion), checked against every layer of the
// library at once. T1 and T2 are the trees of Fig. 1; their normalized
// binary representations, branch vectors and positions are given in
// Figs. 2-3.
#include <memory>

#include "gtest/gtest.h"
#include "core/binary_tree.h"
#include "core/branch_profile.h"
#include "core/inverted_file.h"
#include "core/positional.h"
#include "filters/bibranch_filter.h"
#include "filters/histogram_filter.h"
#include "search/similarity_search.h"
#include "ted/naive_ted.h"
#include "ted/zhang_shasha.h"
#include "test_util.h"
#include "tree/traversal.h"

namespace treesim {
namespace {

class PaperExampleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dict_ = std::make_shared<LabelDictionary>();
    t1_ = testing::MakeTree("a{b{c d} b{c d} e}", dict_);
    t2_ = testing::MakeTree("a{b{c d b{e}} c d e}", dict_);
  }

  std::shared_ptr<LabelDictionary> dict_;
  Tree t1_, t2_;
};

TEST_F(PaperExampleTest, TreeSizesMatchFig1) {
  EXPECT_EQ(t1_.size(), 8);
  EXPECT_EQ(t2_.size(), 9);
}

TEST_F(PaperExampleTest, EditDistanceIsThree) {
  // One delete (the second b of T1) + two inserts (b' under the first b,
  // e under b') transform T1 into T2; the mapping argument shows no
  // two-operation script exists.
  const int d = TreeEditDistance(t1_, t2_);
  EXPECT_EQ(d, 3);
  EXPECT_EQ(NaiveTreeEditDistance(t1_, t2_), d);
}

TEST_F(PaperExampleTest, BinaryTreeSizesMatchFig2) {
  const NormalizedBinaryTree b1 = NormalizedBinaryTree::FromTree(t1_);
  const NormalizedBinaryTree b2 = NormalizedBinaryTree::FromTree(t2_);
  EXPECT_EQ(b1.original_count(), 8);
  EXPECT_EQ(b1.epsilon_count(), 9);
  EXPECT_EQ(b2.original_count(), 9);
  EXPECT_EQ(b2.epsilon_count(), 10);
}

TEST_F(PaperExampleTest, BranchVectorsAndDistanceMatchFig3) {
  BranchDictionary branches(2);
  const BranchProfile p1 = BranchProfile::FromTree(t1_, branches);
  const BranchProfile p2 = BranchProfile::FromTree(t2_, branches);
  // Fig. 3(b) vectors have 6 and 7 non-zero dimensions and L1 distance 9.
  EXPECT_EQ(p1.entries.size(), 6u);
  EXPECT_EQ(p2.entries.size(), 7u);
  EXPECT_EQ(BranchDistance(p1, p2), 9);
  // Theorem 3.2: BDist <= 5 * EDist (9 <= 15).
  EXPECT_LE(BranchDistance(p1, p2), 5 * TreeEditDistance(t1_, t2_));
  // The plain lower bound: ceil(9/5) = 2 <= EDist = 3.
  EXPECT_EQ(BranchDistanceLowerBound(p1, p2), 2);
}

TEST_F(PaperExampleTest, PositionalBoundIsTighterHere) {
  BranchDictionary branches(2);
  const BranchProfile p1 = BranchProfile::FromTree(t1_, branches);
  const BranchProfile p2 = BranchProfile::FromTree(t2_, branches);
  const int propt = OptimisticBound(p1, p2);
  EXPECT_GE(propt, BranchDistanceLowerBound(p1, p2));
  EXPECT_LE(propt, TreeEditDistance(t1_, t2_));
}

TEST_F(PaperExampleTest, QLevelDistancesGrowWithQ) {
  int64_t prev = -1;
  for (int q = 2; q <= 4; ++q) {
    BranchDictionary branches(q);
    const int64_t d = BranchDistance(BranchProfile::FromTree(t1_, branches),
                                     BranchProfile::FromTree(t2_, branches));
    EXPECT_LE(d, static_cast<int64_t>(branches.edit_distance_factor()) *
                     TreeEditDistance(t1_, t2_));
    if (prev >= 0) {
      EXPECT_GE(d, prev);
    }
    prev = d;
  }
}

TEST_F(PaperExampleTest, SearchFindsT2FromT1) {
  auto db = std::make_unique<TreeDatabase>(dict_);
  db->Add(t1_);
  db->Add(t2_);
  // A decoy far from both (label-disjoint and of comparable size, so only
  // the branch filter — not the trivial size bound — can prune it:
  // PosBDist(3) = 8 + 9 = 17 > 5 * 3).
  db->Add(testing::MakeTree("x{y z w v u t s r}", dict_));

  SimilaritySearch engine(db.get(), std::make_unique<BiBranchFilter>());
  const RangeResult r = engine.Range(t1_, 3);
  ASSERT_EQ(r.matches.size(), 2u);
  EXPECT_EQ(r.matches[0], (std::pair<int, int>{0, 0}));  // itself
  EXPECT_EQ(r.matches[1], (std::pair<int, int>{1, 3}));  // T2 at distance 3
  // The decoy must be filtered, not refined.
  EXPECT_LE(r.stats.candidates, 2);

  const KnnResult knn = engine.Knn(t2_, 2);
  ASSERT_EQ(knn.neighbors.size(), 2u);
  EXPECT_EQ(knn.neighbors[0], (std::pair<int, int>{1, 0}));
  EXPECT_EQ(knn.neighbors[1], (std::pair<int, int>{0, 3}));
}

TEST_F(PaperExampleTest, HistogramFilterIsWeakerOnThisPair) {
  // The paper's motivation: histograms blur structure. Here the trees have
  // nearly identical label/degree/height statistics, so the histogram bound
  // is below the positional binary branch bound.
  HistogramFilter histo;
  const int histo_bound = histo.Bound(histo.ExtractFeatures(t1_),
                                      histo.ExtractFeatures(t2_));
  BranchDictionary branches(2);
  const int bb = OptimisticBound(BranchProfile::FromTree(t1_, branches),
                                 BranchProfile::FromTree(t2_, branches));
  EXPECT_LE(histo_bound, bb);
  EXPECT_LE(histo_bound, TreeEditDistance(t1_, t2_));
}

}  // namespace
}  // namespace treesim
