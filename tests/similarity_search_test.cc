#include "search/similarity_search.h"

#include <memory>
#include <set>

#include "gtest/gtest.h"
#include "datagen/synthetic_generator.h"
#include "filters/bibranch_filter.h"
#include "filters/histogram_filter.h"
#include "filters/sequence_filter.h"
#include "test_util.h"

namespace treesim {
namespace {

using testing::MakeLabelPool;
using testing::MakeTree;
using testing::RandomTree;

std::unique_ptr<TreeDatabase> BuildRandomDb(
    const std::shared_ptr<LabelDictionary>& dict,
    const std::vector<LabelId>& pool, int count, int max_size, Rng& rng) {
  auto db = std::make_unique<TreeDatabase>(dict);
  for (int i = 0; i < count; ++i) {
    db->Add(RandomTree(rng.UniformInt(1, max_size), pool, dict, rng));
  }
  return db;
}

TEST(TreeDatabaseTest, BasicAccessors) {
  auto dict = std::make_shared<LabelDictionary>();
  TreeDatabase db(dict);
  EXPECT_EQ(db.size(), 0);
  const int id = db.Add(MakeTree("a{b c}", dict));
  EXPECT_EQ(id, 0);
  EXPECT_EQ(db.size(), 1);
  EXPECT_EQ(db.tree(0).size(), 3);
  EXPECT_EQ(db.ted_view(0).size(), 3);
  EXPECT_DOUBLE_EQ(db.AverageTreeSize(), 3.0);
}

TEST(TreeDatabaseTest, AverageDistanceEstimate) {
  auto dict = std::make_shared<LabelDictionary>();
  TreeDatabase db(dict);
  db.Add(MakeTree("a", dict));
  db.Add(MakeTree("a{b}", dict));  // distance 1 in both directions
  Rng rng(3);
  EXPECT_DOUBLE_EQ(db.EstimateAverageDistance(rng, 50), 1.0);
}

TEST(SimilaritySearchDeathTest, DatabaseGrownAfterIndexingRejected) {
  // A tree added after the filter was built has no filter entry: every
  // entry point must stop instead of reading past the filter's arrays.
  auto dict = std::make_shared<LabelDictionary>();
  TreeDatabase db(dict);
  db.Add(MakeTree("a{b c}", dict));
  db.Add(MakeTree("a{b}", dict));
  const SimilaritySearch engine(&db, std::make_unique<BiBranchFilter>());
  db.Add(MakeTree("x{y}", dict));
  const Tree query = MakeTree("a{b}", dict);
  const CostModel& unit = UnitCostModel::Get();
  constexpr const char* kGrew = "database grew after indexing";
  EXPECT_DEATH((void)engine.Range(query, 1), kGrew);
  EXPECT_DEATH((void)engine.Knn(query, 1), kGrew);
  EXPECT_DEATH((void)engine.BatchKnn({query}, 1), kGrew);
  EXPECT_DEATH((void)engine.RangeWeighted(query, 1.0, unit), kGrew);
  EXPECT_DEATH((void)engine.KnnWeighted(query, 1, unit), kGrew);
}

TEST(TreeDatabaseDeathTest, ForeignDictionaryRejected) {
  auto dict1 = std::make_shared<LabelDictionary>();
  auto dict2 = std::make_shared<LabelDictionary>();
  TreeDatabase db(dict1);
  Tree alien = MakeTree("a", dict2);
  EXPECT_DEATH(db.Add(alien), "label dictionary");
}

class SearchEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dict_ = std::make_shared<LabelDictionary>();
    pool_ = MakeLabelPool(dict_, 5);
    rng_ = std::make_unique<Rng>(501);
    db_ = BuildRandomDb(dict_, pool_, 60, 25, *rng_);
    sequential_ = std::make_unique<SimilaritySearch>(db_.get(), nullptr);
  }

  std::vector<std::unique_ptr<SimilaritySearch>> AllFiltered() {
    std::vector<std::unique_ptr<SimilaritySearch>> out;
    out.push_back(std::make_unique<SimilaritySearch>(
        db_.get(), std::make_unique<BiBranchFilter>()));
    BiBranchFilter::Options plain;
    plain.positional = false;
    out.push_back(std::make_unique<SimilaritySearch>(
        db_.get(), std::make_unique<BiBranchFilter>(plain)));
    BiBranchFilter::Options q3;
    q3.q = 3;
    out.push_back(std::make_unique<SimilaritySearch>(
        db_.get(), std::make_unique<BiBranchFilter>(q3)));
    out.push_back(std::make_unique<SimilaritySearch>(
        db_.get(), std::make_unique<HistogramFilter>()));
    out.push_back(std::make_unique<SimilaritySearch>(
        db_.get(), std::make_unique<SequenceFilter>()));
    SequenceFilter::Options seq_ed;
    seq_ed.mode = SequenceFilter::Options::Mode::kEditDistance;
    out.push_back(std::make_unique<SimilaritySearch>(
        db_.get(), std::make_unique<SequenceFilter>(seq_ed)));
    return out;
  }

  std::shared_ptr<LabelDictionary> dict_;
  std::vector<LabelId> pool_;
  std::unique_ptr<Rng> rng_;
  std::unique_ptr<TreeDatabase> db_;
  std::unique_ptr<SimilaritySearch> sequential_;
};

TEST_F(SearchEquivalenceTest, RangeResultsMatchSequentialScan) {
  std::vector<std::unique_ptr<SimilaritySearch>> engines = AllFiltered();
  for (int qi = 0; qi < 10; ++qi) {
    Tree query = RandomTree(rng_->UniformInt(1, 25), pool_, dict_, *rng_);
    for (const int tau : {0, 1, 3, 6, 12}) {
      const RangeResult expected = sequential_->Range(query, tau);
      EXPECT_EQ(expected.stats.candidates, db_->size());
      for (auto& engine : engines) {
        const RangeResult got = engine->Range(query, tau);
        EXPECT_EQ(got.matches, expected.matches)
            << engine->filter_name() << " tau=" << tau;
        // The filter must never refine more trees than the sequential scan.
        EXPECT_LE(got.stats.candidates, expected.stats.candidates);
        EXPECT_GE(got.stats.candidates, got.stats.results);
      }
    }
  }
}

TEST_F(SearchEquivalenceTest, KnnResultsMatchSequentialScan) {
  std::vector<std::unique_ptr<SimilaritySearch>> engines = AllFiltered();
  for (int qi = 0; qi < 10; ++qi) {
    Tree query = RandomTree(rng_->UniformInt(1, 25), pool_, dict_, *rng_);
    for (const int k : {1, 3, 5, 20}) {
      const KnnResult expected = sequential_->Knn(query, k);
      ASSERT_EQ(static_cast<int>(expected.neighbors.size()),
                std::min(k, db_->size()));
      for (auto& engine : engines) {
        const KnnResult got = engine->Knn(query, k);
        EXPECT_EQ(got.neighbors, expected.neighbors)
            << engine->filter_name() << " k=" << k;
        EXPECT_LE(got.stats.edit_distance_calls,
                  expected.stats.edit_distance_calls);
      }
    }
  }
}

TEST_F(SearchEquivalenceTest, KnnLargerThanDatabaseReturnsAll) {
  Tree query = RandomTree(10, pool_, dict_, *rng_);
  SimilaritySearch engine(db_.get(), std::make_unique<BiBranchFilter>());
  const KnnResult r = engine.Knn(query, db_->size() + 50);
  EXPECT_EQ(static_cast<int>(r.neighbors.size()), db_->size());
  // Distances ascend.
  for (size_t i = 1; i < r.neighbors.size(); ++i) {
    EXPECT_LE(r.neighbors[i - 1].second, r.neighbors[i].second);
  }
}

TEST_F(SearchEquivalenceTest, QueryFromDatabaseFindsItself) {
  SimilaritySearch engine(db_.get(), std::make_unique<BiBranchFilter>());
  const Tree& query = db_->tree(7);
  const KnnResult r = engine.Knn(query, 1);
  ASSERT_EQ(r.neighbors.size(), 1u);
  EXPECT_EQ(r.neighbors[0].second, 0);  // distance 0 to itself

  const RangeResult rr = engine.Range(query, 0);
  bool found_self = false;
  for (const auto& [id, dist] : rr.matches) {
    if (id == 7) found_self = true;
    EXPECT_EQ(dist, 0);
  }
  EXPECT_TRUE(found_self);
}

TEST_F(SearchEquivalenceTest, StatsAreConsistent) {
  SimilaritySearch engine(db_.get(), std::make_unique<BiBranchFilter>());
  Tree query = RandomTree(12, pool_, dict_, *rng_);
  const RangeResult r = engine.Range(query, 4);
  EXPECT_EQ(r.stats.database_size, db_->size());
  EXPECT_EQ(r.stats.edit_distance_calls, r.stats.candidates);
  EXPECT_EQ(r.stats.results, static_cast<int64_t>(r.matches.size()));
  EXPECT_GE(r.stats.filter_seconds, 0.0);
  EXPECT_GE(r.stats.refine_seconds, 0.0);
  EXPECT_LE(r.stats.AccessedFraction(), 1.0);
  EXPECT_GE(r.stats.AccessedFraction(), 0.0);

  QueryStats total;
  total += r.stats;
  total += r.stats;
  EXPECT_EQ(total.candidates, 2 * r.stats.candidates);
  EXPECT_DOUBLE_EQ(total.TotalSeconds(), 2 * r.stats.TotalSeconds());
}

TEST(SearchOnClusteredDataTest, CompletenessOnEvolvedDataset) {
  // The decay-evolved dataset has many near-duplicates — the regime the
  // paper targets; verify exactness there too.
  auto dict = std::make_shared<LabelDictionary>();
  SyntheticParams params;
  params.size_mean = 18;
  params.label_count = 6;
  params.seed_count = 4;
  SyntheticGenerator gen(params, dict, 901);
  auto db = std::make_unique<TreeDatabase>(dict);
  for (Tree& t : gen.GenerateDataset(50)) db->Add(std::move(t));

  SimilaritySearch sequential(db.get(), nullptr);
  SimilaritySearch bibranch(db.get(), std::make_unique<BiBranchFilter>());
  SimilaritySearch histo(db.get(), std::make_unique<HistogramFilter>());

  for (int qi = 0; qi < 8; ++qi) {
    const Tree& query = db->tree(qi * 6);
    for (const int tau : {1, 2, 4}) {
      const RangeResult expected = sequential.Range(query, tau);
      EXPECT_EQ(bibranch.Range(query, tau).matches, expected.matches);
      EXPECT_EQ(histo.Range(query, tau).matches, expected.matches);
    }
    const KnnResult expected = sequential.Knn(query, 5);
    EXPECT_EQ(bibranch.Knn(query, 5).neighbors, expected.neighbors);
    EXPECT_EQ(histo.Knn(query, 5).neighbors, expected.neighbors);
  }
}

TEST(SearchPruningTest, BiBranchPrunesOnSeparatedClusters) {
  // Two well-separated clusters: queries from one cluster should prune most
  // of the other.
  auto dict = std::make_shared<LabelDictionary>();
  SyntheticParams pa;
  pa.size_mean = 15;
  pa.label_count = 4;
  pa.seed_count = 1;
  SyntheticGenerator gen_a(pa, dict, 31);
  SyntheticParams pb;
  pb.size_mean = 40;
  pb.label_count = 4;
  pb.seed_count = 1;
  SyntheticGenerator gen_b(pb, dict, 37);

  auto db = std::make_unique<TreeDatabase>(dict);
  for (Tree& t : gen_a.GenerateDataset(25)) db->Add(std::move(t));
  for (Tree& t : gen_b.GenerateDataset(25)) db->Add(std::move(t));

  SimilaritySearch engine(db.get(), std::make_unique<BiBranchFilter>());
  const RangeResult r = engine.Range(db->tree(3), 2);
  // At least the far cluster must be filtered out without refinement.
  EXPECT_LE(r.stats.candidates, 25);
}

}  // namespace
}  // namespace treesim
