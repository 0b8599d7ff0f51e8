// Parameterized end-to-end grid: every filter configuration against every
// dataset shape, for range and k-NN queries, checked for exact agreement
// with the sequential scan. This is the closure test over the whole engine:
// any unsound bound, broken candidate set or mis-ordered k-NN heap anywhere
// in the stack shows up here.
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "datagen/dblp_generator.h"
#include "datagen/edit_noise.h"
#include "datagen/synthetic_generator.h"
#include "filters/bibranch_filter.h"
#include "filters/histogram_filter.h"
#include "filters/sequence_filter.h"
#include "search/similarity_search.h"
#include "test_util.h"

namespace treesim {
namespace {

enum class DataKind { kRandom, kClustered, kDblp, kDeep };
enum class EngineKind {
  kBiBranch,
  kBiBranchPlain,
  kBiBranchQ3,
  kHisto,
  kHistoFolded,
  kSeqQGram,
};

std::string DataName(DataKind kind) {
  switch (kind) {
    case DataKind::kRandom:
      return "Random";
    case DataKind::kClustered:
      return "Clustered";
    case DataKind::kDblp:
      return "Dblp";
    case DataKind::kDeep:
      return "Deep";
  }
  return "?";
}

std::string EngineName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kBiBranch:
      return "BiBranch";
    case EngineKind::kBiBranchPlain:
      return "BiBranchPlain";
    case EngineKind::kBiBranchQ3:
      return "BiBranchQ3";
    case EngineKind::kHisto:
      return "Histo";
    case EngineKind::kHistoFolded:
      return "HistoFolded";
    case EngineKind::kSeqQGram:
      return "SeqQGram";
  }
  return "?";
}

std::unique_ptr<TreeDatabase> MakeData(
    DataKind kind, const std::shared_ptr<LabelDictionary>& dict) {
  auto db = std::make_unique<TreeDatabase>(dict);
  switch (kind) {
    case DataKind::kRandom: {
      const std::vector<LabelId> pool = testing::MakeLabelPool(dict, 5);
      Rng rng(1701);
      for (int i = 0; i < 45; ++i) {
        db->Add(testing::RandomTree(rng.UniformInt(1, 22), pool, dict, rng));
      }
      break;
    }
    case DataKind::kClustered: {
      SyntheticParams params;
      params.size_mean = 16;
      params.label_count = 5;
      params.seed_count = 5;
      SyntheticGenerator gen(params, dict, 1703);
      for (Tree& t : gen.GenerateDataset(45)) db->Add(std::move(t));
      break;
    }
    case DataKind::kDblp: {
      DblpGenerator gen(DblpParams{}, dict, 1709);
      for (Tree& t : gen.Generate(45)) db->Add(std::move(t));
      break;
    }
    case DataKind::kDeep: {
      SyntheticParams params;
      params.fanout_mean = 1.2;
      params.fanout_stddev = 0.3;
      params.size_mean = 14;
      params.label_count = 4;
      params.seed_count = 5;
      SyntheticGenerator gen(params, dict, 1721);
      for (Tree& t : gen.GenerateDataset(45)) db->Add(std::move(t));
      break;
    }
  }
  return db;
}

std::unique_ptr<FilterIndex> MakeEngineFilter(EngineKind kind) {
  switch (kind) {
    case EngineKind::kBiBranch:
      return std::make_unique<BiBranchFilter>();
    case EngineKind::kBiBranchPlain: {
      BiBranchFilter::Options o;
      o.positional = false;
      return std::make_unique<BiBranchFilter>(o);
    }
    case EngineKind::kBiBranchQ3: {
      BiBranchFilter::Options o;
      o.q = 3;
      return std::make_unique<BiBranchFilter>(o);
    }
    case EngineKind::kHisto:
      return std::make_unique<HistogramFilter>();
    case EngineKind::kHistoFolded: {
      HistogramFilter::Options o;
      o.label_buckets = 6;
      o.degree_buckets = 6;
      return std::make_unique<HistogramFilter>(o);
    }
    case EngineKind::kSeqQGram:
      return std::make_unique<SequenceFilter>();
  }
  return nullptr;
}

using GridParam = std::tuple<DataKind, EngineKind>;

class SearchGridTest : public ::testing::TestWithParam<GridParam> {};

TEST_P(SearchGridTest, RangeAndKnnMatchSequentialScan) {
  const auto [data_kind, engine_kind] = GetParam();
  auto dict = std::make_shared<LabelDictionary>();
  auto db = MakeData(data_kind, dict);
  SimilaritySearch sequential(db.get(), nullptr);
  SimilaritySearch filtered(db.get(), MakeEngineFilter(engine_kind));

  Rng rng(1733);
  for (int qi = 0; qi < 5; ++qi) {
    // Mix in-database and perturbed queries.
    const Tree& base = db->tree(
        static_cast<int>(rng.UniformIndex(static_cast<size_t>(db->size()))));
    Tree query = base;
    if (qi % 2 == 1) {
      std::vector<LabelId> pool;
      for (LabelId l = 1; l < dict->id_bound(); ++l) pool.push_back(l);
      query = ApplyRandomEdits(base, 2, pool, rng).tree;
    }
    for (const int tau : {0, 2, 5}) {
      EXPECT_EQ(filtered.Range(query, tau).matches,
                sequential.Range(query, tau).matches)
          << "tau=" << tau;
    }
    for (const int k : {1, 4}) {
      EXPECT_EQ(filtered.Knn(query, k).neighbors,
                sequential.Knn(query, k).neighbors)
          << "k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, SearchGridTest,
    ::testing::Combine(
        ::testing::Values(DataKind::kRandom, DataKind::kClustered,
                          DataKind::kDblp, DataKind::kDeep),
        ::testing::Values(EngineKind::kBiBranch, EngineKind::kBiBranchPlain,
                          EngineKind::kBiBranchQ3, EngineKind::kHisto,
                          EngineKind::kHistoFolded, EngineKind::kSeqQGram)),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      return DataName(std::get<0>(info.param)) +
             EngineName(std::get<1>(info.param));
    });

}  // namespace
}  // namespace treesim
