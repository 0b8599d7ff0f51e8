// Cross-filter soundness: every FilterIndex implementation must produce
// lower bounds that never exceed the exact tree edit distance, on varied
// dataset shapes. This is the invariant that makes filter-and-refine exact.
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "datagen/synthetic_generator.h"
#include "filters/bibranch_filter.h"
#include "filters/filter_index.h"
#include "filters/histogram_filter.h"
#include "filters/sequence_filter.h"
#include "ted/zhang_shasha.h"
#include "test_util.h"

namespace treesim {
namespace {

using testing::MakeLabelPool;
using testing::RandomTree;

enum class FilterKind {
  kBiBranchPositionalQ2,
  kBiBranchPositionalQ3,
  kBiBranchPlainQ2,
  kHistogram,
  kHistogramFolded,
  kSequenceEditDistance,
  kSequenceQGram,
};

std::unique_ptr<FilterIndex> MakeFilter(FilterKind kind) {
  switch (kind) {
    case FilterKind::kBiBranchPositionalQ2: {
      BiBranchFilter::Options o;
      return std::make_unique<BiBranchFilter>(o);
    }
    case FilterKind::kBiBranchPositionalQ3: {
      BiBranchFilter::Options o;
      o.q = 3;
      return std::make_unique<BiBranchFilter>(o);
    }
    case FilterKind::kBiBranchPlainQ2: {
      BiBranchFilter::Options o;
      o.positional = false;
      return std::make_unique<BiBranchFilter>(o);
    }
    case FilterKind::kHistogram:
      return std::make_unique<HistogramFilter>();
    case FilterKind::kHistogramFolded: {
      HistogramFilter::Options o;
      o.label_buckets = 4;
      o.degree_buckets = 4;
      return std::make_unique<HistogramFilter>(o);
    }
    case FilterKind::kSequenceEditDistance: {
      SequenceFilter::Options o;
      o.mode = SequenceFilter::Options::Mode::kEditDistance;
      return std::make_unique<SequenceFilter>(o);
    }
    case FilterKind::kSequenceQGram:
      return std::make_unique<SequenceFilter>();
  }
  return nullptr;
}

std::string KindName(FilterKind kind) {
  switch (kind) {
    case FilterKind::kBiBranchPositionalQ2:
      return "BiBranchQ2";
    case FilterKind::kBiBranchPositionalQ3:
      return "BiBranchQ3";
    case FilterKind::kBiBranchPlainQ2:
      return "BiBranchPlain";
    case FilterKind::kHistogram:
      return "Histo";
    case FilterKind::kHistogramFolded:
      return "HistoFolded";
    case FilterKind::kSequenceEditDistance:
      return "SeqED";
    case FilterKind::kSequenceQGram:
      return "SeqQGram";
  }
  return "?";
}

class FilterSoundnessTest : public ::testing::TestWithParam<FilterKind> {};

TEST_P(FilterSoundnessTest, LowerBoundNeverExceedsEDist_RandomTrees) {
  auto dict = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(dict, 4);
  Rng rng(401);
  std::vector<Tree> trees;
  for (int i = 0; i < 40; ++i) {
    trees.push_back(RandomTree(rng.UniformInt(1, 30), pool, dict, rng));
  }
  std::unique_ptr<FilterIndex> filter = MakeFilter(GetParam());
  filter->Build(trees);
  for (int qi = 0; qi < 8; ++qi) {
    const Tree& query = trees[static_cast<size_t>(qi * 5)];
    auto ctx = filter->PrepareQuery(query);
    for (int id = 0; id < static_cast<int>(trees.size()); ++id) {
      const double bound = filter->LowerBound(*ctx, id);
      const int edist =
          TreeEditDistance(query, trees[static_cast<size_t>(id)]);
      EXPECT_LE(bound, static_cast<double>(edist))
          << filter->name() << " query " << qi << " vs tree " << id;
      // MayQualify must accept everything within tau = edist.
      EXPECT_TRUE(filter->MayQualify(*ctx, id, edist));
    }
  }
}

TEST_P(FilterSoundnessTest, LowerBoundNeverExceedsEDist_ClusteredData) {
  // The paper's evolved synthetic data: clustered, near-duplicate heavy.
  auto dict = std::make_shared<LabelDictionary>();
  SyntheticParams params;
  params.size_mean = 20;
  params.size_stddev = 2;
  params.label_count = 6;
  params.seed_count = 3;
  SyntheticGenerator gen(params, dict, /*seed=*/77);
  const std::vector<Tree> trees = gen.GenerateDataset(30);
  std::unique_ptr<FilterIndex> filter = MakeFilter(GetParam());
  filter->Build(trees);
  for (int qi = 0; qi < 6; ++qi) {
    const Tree& query = trees[static_cast<size_t>(qi * 4)];
    auto ctx = filter->PrepareQuery(query);
    for (int id = 0; id < static_cast<int>(trees.size()); ++id) {
      const int edist =
          TreeEditDistance(query, trees[static_cast<size_t>(id)]);
      EXPECT_LE(filter->LowerBound(*ctx, id), static_cast<double>(edist));
    }
  }
}

TEST_P(FilterSoundnessTest, QueryOutsideDatabaseVocabulary) {
  // Queries may contain labels/branches the database has never seen.
  auto dict = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(dict, 3);
  Rng rng(409);
  std::vector<Tree> trees;
  for (int i = 0; i < 10; ++i) {
    trees.push_back(RandomTree(rng.UniformInt(1, 15), pool, dict, rng));
  }
  std::unique_ptr<FilterIndex> filter = MakeFilter(GetParam());
  filter->Build(trees);
  const std::vector<LabelId> alien_pool = {dict->Intern("zz1"),
                                           dict->Intern("zz2")};
  Tree query = RandomTree(10, alien_pool, dict, rng);
  auto ctx = filter->PrepareQuery(query);
  for (int id = 0; id < static_cast<int>(trees.size()); ++id) {
    const int edist = TreeEditDistance(query, trees[static_cast<size_t>(id)]);
    EXPECT_LE(filter->LowerBound(*ctx, id), static_cast<double>(edist));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFilters, FilterSoundnessTest,
    ::testing::Values(FilterKind::kBiBranchPositionalQ2,
                      FilterKind::kBiBranchPositionalQ3,
                      FilterKind::kBiBranchPlainQ2, FilterKind::kHistogram,
                      FilterKind::kHistogramFolded,
                      FilterKind::kSequenceEditDistance,
                      FilterKind::kSequenceQGram),
    [](const ::testing::TestParamInfo<FilterKind>& info) {
      return KindName(info.param);
    });

}  // namespace
}  // namespace treesim
