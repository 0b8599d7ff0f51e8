#include "filters/histogram_filter.h"

#include <memory>
#include <string>

#include "gtest/gtest.h"
#include "test_util.h"
#include "ted/zhang_shasha.h"

namespace treesim {
namespace {

using testing::MakeLabelPool;
using testing::MakeTree;
using testing::RandomTree;

TEST(SparseHistogramL1Test, BasicMergeCases) {
  using H = std::vector<std::pair<int, int>>;
  EXPECT_EQ(SparseHistogramL1(H{}, H{}), 0);
  EXPECT_EQ(SparseHistogramL1(H{{1, 3}}, H{}), 3);
  EXPECT_EQ(SparseHistogramL1(H{{1, 3}}, H{{1, 1}}), 2);
  EXPECT_EQ(SparseHistogramL1(H{{1, 3}, {5, 2}}, H{{2, 1}, {5, 2}}), 4);
  EXPECT_EQ(SparseHistogramL1(H{{1, 1}, {2, 1}}, H{{1, 1}, {2, 1}}), 0);
}

TEST(HistogramFilterTest, FeatureExtraction) {
  HistogramFilter filter;
  auto dict = std::make_shared<LabelDictionary>();
  Tree t = MakeTree("a{b{c d} e}", dict);
  const HistogramFilter::Features f = filter.ExtractFeatures(t);
  EXPECT_EQ(f.size, 5);
  EXPECT_EQ(f.height, 3);
  EXPECT_EQ(f.leaves, 3);
  // Degrees: a->2, b->2, c/d/e->0.
  EXPECT_EQ(f.degree_hist,
            (std::vector<std::pair<int, int>>{{0, 3}, {2, 2}}));
  // Labels: one of each of a..e (ids 1..5).
  EXPECT_EQ(f.label_hist.size(), 5u);
  for (const auto& [bucket, count] : f.label_hist) EXPECT_EQ(count, 1);
}

TEST(HistogramFilterTest, IdenticalTreesBoundZero) {
  HistogramFilter filter;
  auto dict = std::make_shared<LabelDictionary>();
  Tree t = MakeTree("a{b{c d} e}", dict);
  EXPECT_EQ(filter.Bound(filter.ExtractFeatures(t),
                         filter.ExtractFeatures(t)),
            0);
}

/// The combined bound of the default filter on two bracket trees, checked
/// sound against the exact distance.
int CombinedBound(const std::string& a, const std::string& b) {
  HistogramFilter filter;
  auto dict = std::make_shared<LabelDictionary>();
  const Tree ta = MakeTree(a, dict);
  const Tree tb = MakeTree(b, dict);
  const int bound =
      filter.Bound(filter.ExtractFeatures(ta), filter.ExtractFeatures(tb));
  EXPECT_LE(bound, TreeEditDistance(ta, tb)) << a << " vs " << b;
  return bound;
}

// Each case below makes one component the maximum of the combined bound,
// with the others strictly below it, so the component's formula is pinned.

TEST(HistogramFilterTest, LabelBoundIsCeilHalfL1) {
  // Label L1 = 5 -> ceil(5/2) = 3; degree L1 = 3 -> 1; size and leaves
  // differ by 1, heights are equal.
  EXPECT_EQ(CombinedBound("a{b c d}", "a{x y}"), 3);
}

TEST(HistogramFilterTest, DegreeBoundIsCeilThirdL1) {
  // One label, 9 nodes, height 5 and 5 leaves each; degree histograms
  // {5:1, 1:3, 0:5} and {2:4, 0:5}: L1 = 8 -> ceil(8/3) = 3.
  EXPECT_EQ(CombinedBound("a{a a a a a{a{a{a}}}}", "a{a{a{a{a a} a} a} a}"), 3);
}

TEST(HistogramFilterTest, HeightBoundIsTheHeightDifference) {
  // One label, 8 nodes, 2 leaves and the same degree histogram each;
  // heights 7 and 5.
  EXPECT_EQ(CombinedBound("a{a{a{a{a{a{a a}}}}}}", "a{a{a{a}} a{a{a{a}}}}"), 2);
}

TEST(HistogramFilterTest, SizeBoundIsTheSizeDifference) {
  // One label, height 5 and 2 leaves each; sizes 9 and 6: label L1 = 3 ->
  // 2, degree L1 = 3 -> 1.
  EXPECT_EQ(CombinedBound("a{a{a{a{a}}} a{a{a{a}}}}", "a{a{a{a{a}}} a}"), 3);
}

TEST(HistogramFilterTest, LeafBoundIsTheLeafDifference) {
  // One label, 13 nodes and height 5 each; 9 leaves against 3: degree
  // histograms {9:1, 1:3, 0:9} and {3:1, 1:9, 0:3}, L1 = 14 -> 5.
  EXPECT_EQ(CombinedBound("a{a{a{a{a}}} a a a a a a a a}",
                          "a{a{a{a{a}}} a{a{a{a}}} a{a{a{a}}}}"),
            6);
}

TEST(HistogramFilterTest, FoldedLabelBucketsStillSound) {
  HistogramFilter::Options o;
  o.label_buckets = 3;
  o.degree_buckets = 4;
  HistogramFilter folded(o);
  HistogramFilter exact;
  auto dict = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(dict, 10);
  Rng rng(331);
  for (int trial = 0; trial < 40; ++trial) {
    Tree a = RandomTree(rng.UniformInt(1, 25), pool, dict, rng);
    Tree b = RandomTree(rng.UniformInt(1, 25), pool, dict, rng);
    const int folded_bound = folded.Bound(folded.ExtractFeatures(a),
                                          folded.ExtractFeatures(b));
    const int exact_bound =
        exact.Bound(exact.ExtractFeatures(a), exact.ExtractFeatures(b));
    const int edist = TreeEditDistance(a, b);
    EXPECT_LE(folded_bound, edist);       // soundness survives folding
    EXPECT_LE(folded_bound, exact_bound);  // folding can only weaken
  }
}

TEST(HistogramFilterTest, FilterIndexInterface) {
  auto dict = std::make_shared<LabelDictionary>();
  std::vector<Tree> trees = {MakeTree("a{b c}", dict),
                             MakeTree("a{b{c}}", dict),
                             MakeTree("x{y}", dict)};
  HistogramFilter filter;
  filter.Build(trees);
  EXPECT_EQ(filter.name(), "Histo");
  auto ctx = filter.PrepareQuery(trees[0]);
  EXPECT_DOUBLE_EQ(filter.LowerBound(*ctx, 0), 0.0);
  EXPECT_GT(filter.LowerBound(*ctx, 2), 0.0);
  EXPECT_TRUE(filter.MayQualify(*ctx, 0, 0.0));
}

}  // namespace
}  // namespace treesim
