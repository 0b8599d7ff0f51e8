// The Section 2.1 extension end-to-end: filter-and-refine search under a
// general cost model, with filter bounds scaled by the minimum operation
// cost. Exactness is verified against a weighted sequential scan.
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "filters/bibranch_filter.h"
#include "filters/histogram_filter.h"
#include "filters/sequence_filter.h"
#include "search/similarity_search.h"
#include "test_util.h"

namespace treesim {
namespace {

using testing::MakeLabelPool;
using testing::MakeTree;
using testing::RandomTree;

/// Ops cost between 0.5 and 1.5 depending on the labels involved.
class SkewedCosts final : public CostModel {
 public:
  double Relabel(LabelId a, LabelId b) const override {
    return a == b ? 0.0 : 0.5 + 0.5 * ((a + b) % 3);
  }
  double Insert(LabelId l) const override { return 0.5 + 0.25 * (l % 3); }
  double Delete(LabelId l) const override { return 0.5 + 0.5 * (l % 2); }
  double MinOperationCost() const override { return 0.5; }
};

class WeightedSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dict_ = std::make_shared<LabelDictionary>();
    pool_ = MakeLabelPool(dict_, 4);
    Rng rng(1601);
    db_ = std::make_unique<TreeDatabase>(dict_);
    for (int i = 0; i < 50; ++i) {
      db_->Add(RandomTree(rng.UniformInt(1, 20), pool_, dict_, rng));
    }
    sequential_ = std::make_unique<SimilaritySearch>(db_.get(), nullptr);
  }

  std::shared_ptr<LabelDictionary> dict_;
  std::vector<LabelId> pool_;
  std::unique_ptr<TreeDatabase> db_;
  std::unique_ptr<SimilaritySearch> sequential_;
  SkewedCosts costs_;
};

TEST_F(WeightedSearchTest, RangeMatchesWeightedSequentialScan) {
  SimilaritySearch bibranch(db_.get(), std::make_unique<BiBranchFilter>());
  SimilaritySearch histo(db_.get(), std::make_unique<HistogramFilter>());
  Rng rng(1607);
  for (int qi = 0; qi < 8; ++qi) {
    Tree query = RandomTree(rng.UniformInt(1, 20), pool_, dict_, rng);
    for (const double tau : {0.5, 1.75, 4.0, 8.25}) {
      const WeightedRangeResult expected =
          sequential_->RangeWeighted(query, tau, costs_);
      const WeightedRangeResult bb =
          bibranch.RangeWeighted(query, tau, costs_);
      const WeightedRangeResult hi = histo.RangeWeighted(query, tau, costs_);
      EXPECT_EQ(bb.matches, expected.matches) << "tau=" << tau;
      EXPECT_EQ(hi.matches, expected.matches) << "tau=" << tau;
      EXPECT_LE(bb.stats.candidates, expected.stats.candidates);
    }
  }
}

TEST_F(WeightedSearchTest, KnnMatchesWeightedSequentialScan) {
  SimilaritySearch bibranch(db_.get(), std::make_unique<BiBranchFilter>());
  Rng rng(1609);
  for (int qi = 0; qi < 8; ++qi) {
    Tree query = RandomTree(rng.UniformInt(1, 20), pool_, dict_, rng);
    for (const int k : {1, 4, 10}) {
      const WeightedKnnResult expected =
          sequential_->KnnWeighted(query, k, costs_);
      const WeightedKnnResult got = bibranch.KnnWeighted(query, k, costs_);
      EXPECT_EQ(got.neighbors, expected.neighbors) << "k=" << k;
      EXPECT_LE(got.stats.edit_distance_calls,
                expected.stats.edit_distance_calls);
    }
  }
}

TEST_F(WeightedSearchTest, UnitCostsReduceToIntegerEngine) {
  SimilaritySearch bibranch(db_.get(), std::make_unique<BiBranchFilter>());
  Rng rng(1613);
  Tree query = RandomTree(12, pool_, dict_, rng);
  const RangeResult unit = bibranch.Range(query, 3);
  const WeightedRangeResult weighted =
      bibranch.RangeWeighted(query, 3.0, UnitCostModel::Get());
  ASSERT_EQ(unit.matches.size(), weighted.matches.size());
  for (size_t i = 0; i < unit.matches.size(); ++i) {
    EXPECT_EQ(unit.matches[i].first, weighted.matches[i].first);
    EXPECT_DOUBLE_EQ(static_cast<double>(unit.matches[i].second),
                     weighted.matches[i].second);
  }

  const KnnResult unit_knn = bibranch.Knn(query, 5);
  const WeightedKnnResult weighted_knn =
      bibranch.KnnWeighted(query, 5, UnitCostModel::Get());
  ASSERT_EQ(unit_knn.neighbors.size(), weighted_knn.neighbors.size());
  for (size_t i = 0; i < unit_knn.neighbors.size(); ++i) {
    EXPECT_EQ(unit_knn.neighbors[i].first, weighted_knn.neighbors[i].first);
    EXPECT_DOUBLE_EQ(static_cast<double>(unit_knn.neighbors[i].second),
                     weighted_knn.neighbors[i].second);
  }
}

TEST_F(WeightedSearchTest, SelfQueryAtDistanceZero) {
  SimilaritySearch bibranch(db_.get(), std::make_unique<BiBranchFilter>());
  const WeightedKnnResult r = bibranch.KnnWeighted(db_->tree(5), 1, costs_);
  ASSERT_EQ(r.neighbors.size(), 1u);
  EXPECT_DOUBLE_EQ(r.neighbors[0].second, 0.0);
}

TEST_F(WeightedSearchTest, NonFiniteAndHugeThresholdsAgreeAcrossFilters) {
  // tau = +inf, or a tau whose unit-operation scaling is past INT_MAX,
  // admits every tree; NaN admits none, which is also the verifier's answer
  // to a NaN threshold. Every filter must give the sequential scan's answer
  // rather than dropping trees on an out-of-range threshold conversion.
  SimilaritySearch bibranch(db_.get(), std::make_unique<BiBranchFilter>());
  SimilaritySearch histo(db_.get(), std::make_unique<HistogramFilter>());
  SimilaritySearch sequence(db_.get(), std::make_unique<SequenceFilter>());
  const std::vector<SimilaritySearch*> engines = {
      sequential_.get(), &bibranch, &histo, &sequence};
  Rng rng(1619);
  const Tree query = RandomTree(10, pool_, dict_, rng);
  const CostModel* models[] = {&UnitCostModel::Get(), &costs_};
  for (const CostModel* model : models) {
    for (const double tau : {std::numeric_limits<double>::infinity(), 3e9}) {
      for (SimilaritySearch* engine : engines) {
        const WeightedRangeResult r = engine->RangeWeighted(query, tau, *model);
        ASSERT_EQ(r.matches.size(), static_cast<size_t>(db_->size()))
            << engine->filter_name() << " tau=" << tau;
        for (const auto& match : r.matches) {
          EXPECT_TRUE(std::isfinite(match.second));
        }
        EXPECT_EQ(r.matches,
                  sequential_->RangeWeighted(query, tau, *model).matches)
            << engine->filter_name() << " tau=" << tau;
      }
    }
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (SimilaritySearch* engine : engines) {
      const WeightedRangeResult r = engine->RangeWeighted(query, nan, *model);
      EXPECT_TRUE(r.matches.empty()) << engine->filter_name() << " tau=NaN";
    }
  }
}

}  // namespace
}  // namespace treesim
