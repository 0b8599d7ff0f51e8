#include "search/similarity_join.h"

#include <memory>
#include <set>

#include "gtest/gtest.h"
#include "datagen/synthetic_generator.h"
#include "filters/bibranch_filter.h"
#include "filters/histogram_filter.h"
#include "test_util.h"

namespace treesim {
namespace {

using testing::MakeLabelPool;
using testing::MakeTree;
using testing::RandomTree;

std::unique_ptr<TreeDatabase> RandomDb(
    const std::shared_ptr<LabelDictionary>& dict,
    const std::vector<LabelId>& pool, int count, int max_size, Rng& rng) {
  auto db = std::make_unique<TreeDatabase>(dict);
  for (int i = 0; i < count; ++i) {
    db->Add(RandomTree(rng.UniformInt(1, max_size), pool, dict, rng));
  }
  return db;
}

TEST(SimilarityJoinTest, SmallHandJoin) {
  auto dict = std::make_shared<LabelDictionary>();
  auto right = std::make_unique<TreeDatabase>(dict);
  right->Add(MakeTree("a{b c}", dict));    // 0
  right->Add(MakeTree("a{b d}", dict));    // 1: distance 1 from 0
  right->Add(MakeTree("x{y{z}}", dict));   // 2: far from both

  auto left = std::make_unique<TreeDatabase>(dict);
  left->Add(MakeTree("a{b c}", dict));     // == right 0

  SimilarityJoin join(right.get(), std::make_unique<BiBranchFilter>());
  const JoinResult r = join.Join(*left, 1);
  ASSERT_EQ(r.pairs.size(), 2u);
  EXPECT_EQ(r.pairs[0], std::make_tuple(0, 0, 0));
  EXPECT_EQ(r.pairs[1], std::make_tuple(0, 1, 1));
}

TEST(SimilarityJoinTest, FilteredMatchesUnfiltered) {
  auto dict = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(dict, 4);
  Rng rng(801);
  auto left = RandomDb(dict, pool, 25, 18, rng);
  auto right = RandomDb(dict, pool, 30, 18, rng);

  SimilarityJoin plain(right.get(), nullptr);
  SimilarityJoin filtered(right.get(), std::make_unique<BiBranchFilter>());
  SimilarityJoin histo(right.get(), std::make_unique<HistogramFilter>());
  for (const int tau : {0, 2, 5}) {
    const JoinResult expected = plain.Join(*left, tau);
    const JoinResult bb = filtered.Join(*left, tau);
    const JoinResult hi = histo.Join(*left, tau);
    EXPECT_EQ(bb.pairs, expected.pairs) << "tau=" << tau;
    EXPECT_EQ(hi.pairs, expected.pairs) << "tau=" << tau;
    EXPECT_LE(bb.stats.edit_distance_calls,
              expected.stats.edit_distance_calls);
  }
}

TEST(SimilarityJoinTest, SelfJoinEmitsEachPairOnce) {
  auto dict = std::make_shared<LabelDictionary>();
  SyntheticParams params;
  params.size_mean = 12;
  params.label_count = 5;
  params.seed_count = 3;
  SyntheticGenerator gen(params, dict, 811);
  auto db = std::make_unique<TreeDatabase>(dict);
  for (Tree& t : gen.GenerateDataset(25)) db->Add(std::move(t));

  SimilarityJoin join(db.get(), std::make_unique<BiBranchFilter>());
  const JoinResult r = join.SelfJoin(3);
  std::set<std::pair<int, int>> seen;
  for (const auto& [l, rr, d] : r.pairs) {
    EXPECT_LT(l, rr);  // strictly ordered: no self pairs, no duplicates
    EXPECT_LE(d, 3);
    EXPECT_TRUE(seen.emplace(l, rr).second);
  }
  // Clustered data must produce some joinable pairs.
  EXPECT_FALSE(r.pairs.empty());
}

TEST(SimilarityJoinTest, SelfJoinMatchesNestedLoop) {
  auto dict = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(dict, 3);
  Rng rng(821);
  auto db = RandomDb(dict, pool, 20, 14, rng);
  SimilarityJoin filtered(db.get(), std::make_unique<BiBranchFilter>());
  const JoinResult got = filtered.SelfJoin(4);

  std::vector<std::tuple<int, int, int>> expected;
  for (int i = 0; i < db->size(); ++i) {
    for (int j = i + 1; j < db->size(); ++j) {
      const int d = TreeEditDistance(db->tree(i), db->tree(j));
      if (d <= 4) expected.emplace_back(i, j, d);
    }
  }
  EXPECT_EQ(got.pairs, expected);
}

TEST(SimilarityJoinTest, StatsAccounting) {
  auto dict = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(dict, 3);
  Rng rng(823);
  auto left = RandomDb(dict, pool, 10, 10, rng);
  auto right = RandomDb(dict, pool, 15, 10, rng);
  SimilarityJoin join(right.get(), std::make_unique<BiBranchFilter>());
  const JoinResult r = join.Join(*left, 2);
  EXPECT_EQ(r.stats.database_size, 10 * 15);
  EXPECT_EQ(r.stats.edit_distance_calls, r.stats.candidates);
  EXPECT_EQ(r.stats.results, static_cast<int64_t>(r.pairs.size()));
  EXPECT_LE(r.stats.results, r.stats.candidates);
}

TEST(SimilarityJoinDeathTest, MismatchedDictionariesRejected) {
  auto dict1 = std::make_shared<LabelDictionary>();
  auto dict2 = std::make_shared<LabelDictionary>();
  auto right = std::make_unique<TreeDatabase>(dict1);
  right->Add(MakeTree("a", dict1));
  auto left = std::make_unique<TreeDatabase>(dict2);
  left->Add(MakeTree("a", dict2));
  SimilarityJoin join(right.get(), nullptr);
  EXPECT_DEATH((void)join.Join(*left, 1), "share one label dictionary");
}

TEST(SimilarityJoinDeathTest, RightSideGrownAfterIndexingRejected) {
  auto dict = std::make_shared<LabelDictionary>();
  auto right = std::make_unique<TreeDatabase>(dict);
  right->Add(MakeTree("a{b c}", dict));
  const SimilarityJoin join(right.get(), std::make_unique<BiBranchFilter>());
  right->Add(MakeTree("a{b}", dict));
  EXPECT_DEATH((void)join.Join(*right, 1), "database grew after indexing");
  EXPECT_DEATH((void)join.SelfJoin(1), "database grew after indexing");
}

}  // namespace
}  // namespace treesim
