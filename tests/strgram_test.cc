#include <limits>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "strgram/qgram.h"
#include "strgram/string_edit_distance.h"
#include "test_util.h"
#include "ted/zhang_shasha.h"
#include "tree/traversal.h"

namespace treesim {
namespace {

using testing::MakeLabelPool;
using testing::RandomTree;

using Seq = std::vector<LabelId>;

TEST(StringEditDistanceTest, BasicCases) {
  EXPECT_EQ(StringEditDistance({}, {}), 0);
  EXPECT_EQ(StringEditDistance({1, 2, 3}, {1, 2, 3}), 0);
  EXPECT_EQ(StringEditDistance({1, 2, 3}, {}), 3);
  EXPECT_EQ(StringEditDistance({}, {1, 2}), 2);
  EXPECT_EQ(StringEditDistance({1, 2, 3}, {1, 9, 3}), 1);   // substitute
  EXPECT_EQ(StringEditDistance({1, 2, 3}, {1, 3}), 1);      // delete
  EXPECT_EQ(StringEditDistance({1, 3}, {1, 2, 3}), 1);      // insert
  EXPECT_EQ(StringEditDistance({1, 2, 3, 4}, {4, 3, 2, 1}), 4);
}

TEST(StringEditDistanceTest, ClassicWords) {
  // kitten -> sitting = 3, encoded as label ids.
  const Seq kitten = {11, 9, 20, 20, 5, 14};
  const Seq sitting = {19, 9, 20, 20, 9, 14, 7};
  EXPECT_EQ(StringEditDistance(kitten, sitting), 3);
}

TEST(StringEditDistanceTest, SymmetricAndTriangle) {
  Rng rng(701);
  for (int trial = 0; trial < 50; ++trial) {
    auto random_seq = [&](int max_len) {
      Seq s(static_cast<size_t>(rng.UniformInt(0, max_len)));
      for (LabelId& x : s) x = static_cast<LabelId>(rng.UniformInt(1, 4));
      return s;
    };
    const Seq a = random_seq(15);
    const Seq b = random_seq(15);
    const Seq c = random_seq(15);
    EXPECT_EQ(StringEditDistance(a, b), StringEditDistance(b, a));
    EXPECT_LE(StringEditDistance(a, b),
              StringEditDistance(a, c) + StringEditDistance(c, b));
    EXPECT_GE(StringEditDistance(a, b),
              std::abs(static_cast<int>(a.size()) -
                       static_cast<int>(b.size())));
  }
}

TEST(StringEditDistanceBoundedTest, AgreesWithFullWithinLimit) {
  Rng rng(709);
  for (int trial = 0; trial < 80; ++trial) {
    auto random_seq = [&](int max_len) {
      Seq s(static_cast<size_t>(rng.UniformInt(0, max_len)));
      for (LabelId& x : s) x = static_cast<LabelId>(rng.UniformInt(1, 3));
      return s;
    };
    const Seq a = random_seq(20);
    const Seq b = random_seq(20);
    const int exact = StringEditDistance(a, b);
    for (const int limit : {0, 1, 2, 4, 8, 30}) {
      const int banded = StringEditDistanceBounded(a, b, limit);
      if (exact <= limit) {
        EXPECT_EQ(banded, exact) << "limit=" << limit;
      } else {
        EXPECT_GT(banded, limit) << "limit=" << limit;
      }
    }
  }
}

TEST(StringEditDistanceBoundedTest, EmptyAndDegenerate) {
  EXPECT_EQ(StringEditDistanceBounded({}, {}, 0), 0);
  EXPECT_GT(StringEditDistanceBounded({1, 2, 3}, {}, 2), 2);
  EXPECT_EQ(StringEditDistanceBounded({1, 2, 3}, {}, 3), 3);
}

TEST(StringEditDistanceBoundedTest, LimitAtIntMaxIsExact) {
  // A saturated threshold (the sequence filter's +inf / huge tau) must not
  // overflow the band arithmetic: every distance is within such a limit.
  const int limit = std::numeric_limits<int>::max();
  EXPECT_EQ(StringEditDistanceBounded({}, {}, limit), 0);
  EXPECT_EQ(StringEditDistanceBounded({1, 2, 3}, {}, limit), 3);
  EXPECT_EQ(StringEditDistanceBounded({1, 2, 3, 4}, {2, 3, 5}, limit),
            StringEditDistance({1, 2, 3, 4}, {2, 3, 5}));
}

TEST(QGramProfileTest, CountsWindows) {
  const Seq s = {1, 2, 1, 2, 1};
  QGramProfile p(s, 2);
  EXPECT_EQ(p.size(), 4);  // (1,2) (2,1) (1,2) (2,1)
  EXPECT_EQ(p.sequence_length(), 5);
  QGramProfile q(s, 6);
  EXPECT_EQ(q.size(), 0);  // shorter than the window
}

TEST(QGramProfileTest, SharedIsMultisetIntersection) {
  const Seq a = {1, 2, 1, 2, 1};  // grams: 12 21 12 21
  const Seq b = {1, 2, 3};        // grams: 12 23
  QGramProfile pa(a, 2);
  QGramProfile pb(b, 2);
  EXPECT_EQ(pa.SharedWith(pb), 1);  // one copy of (1,2) matches
  EXPECT_EQ(pb.SharedWith(pa), 1);
  EXPECT_EQ(pa.L1Distance(pb), 4 + 2 - 2);
  EXPECT_EQ(pa.SharedWith(pa), 4);
}

TEST(QGramLowerBoundTest, SoundAgainstStringEditDistance) {
  Rng rng(719);
  for (const int q : {1, 2, 3}) {
    for (int trial = 0; trial < 60; ++trial) {
      auto random_seq = [&](int max_len) {
        Seq s(static_cast<size_t>(rng.UniformInt(0, max_len)));
        for (LabelId& x : s) x = static_cast<LabelId>(rng.UniformInt(1, 4));
        return s;
      };
      const Seq a = random_seq(25);
      const Seq b = random_seq(25);
      QGramProfile pa(a, q);
      QGramProfile pb(b, q);
      EXPECT_LE(QGramLowerBound(pa, pb), StringEditDistance(a, b))
          << "q=" << q;
    }
  }
}

TEST(QGramLowerBoundTest, IdenticalSequencesGiveZero) {
  const Seq s = {1, 2, 3, 4, 5};
  QGramProfile p(s, 2);
  EXPECT_EQ(QGramLowerBound(p, p), 0);
}

TEST(QGramLowerBoundTest, DisjointSequencesGiveStrongBound) {
  const Seq a = {1, 1, 1, 1, 1, 1};
  const Seq b = {2, 2, 2, 2, 2, 2};
  QGramProfile pa(a, 2);
  QGramProfile pb(b, 2);
  // Shared = 0: bound = ceil((6 - 2 + 1) / 2) = 3; true SED = 6.
  EXPECT_EQ(QGramLowerBound(pa, pb), 3);
}

TEST(TraversalSequenceTest, StringDistanceLowerBoundsTreeDistance) {
  // The Section 2.2 fact behind the Guha et al. filter: SED of the preorder
  // (or postorder) label sequences never exceeds the tree edit distance.
  auto dict = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(dict, 3);
  Rng rng(727);
  for (int trial = 0; trial < 60; ++trial) {
    Tree a = RandomTree(rng.UniformInt(1, 25), pool, dict, rng);
    Tree b = RandomTree(rng.UniformInt(1, 25), pool, dict, rng);
    Seq pre_a, pre_b, post_a, post_b;
    for (const NodeId n : PreorderSequence(a)) pre_a.push_back(a.label(n));
    for (const NodeId n : PreorderSequence(b)) pre_b.push_back(b.label(n));
    for (const NodeId n : PostorderSequence(a)) post_a.push_back(a.label(n));
    for (const NodeId n : PostorderSequence(b)) post_b.push_back(b.label(n));
    const int ted = TreeEditDistance(a, b);
    EXPECT_LE(StringEditDistance(pre_a, pre_b), ted);
    EXPECT_LE(StringEditDistance(post_a, post_b), ted);
  }
}

}  // namespace
}  // namespace treesim
