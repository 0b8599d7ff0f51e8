#include "core/inverted_file.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "test_util.h"

namespace treesim {
namespace {

using testing::MakeLabelPool;
using testing::MakeTree;
using testing::RandomTree;

TEST(InvertedFileTest, AddAssignsDenseIds) {
  auto dict = std::make_shared<LabelDictionary>();
  InvertedFileIndex index(2);
  EXPECT_EQ(index.Add(MakeTree("a{b}", dict)), 0);
  EXPECT_EQ(index.Add(MakeTree("a{c}", dict)), 1);
  EXPECT_EQ(index.tree_count(), 2);
}

TEST(InvertedFileTest, PostingsMatchPaperInvertedFile) {
  // Fig. 3(a): the inverted list of c(ε,d) holds T1 with count 2 and T2
  // with count 2; b(c,b) holds only T1; b(c,c) holds only T2.
  auto dict = std::make_shared<LabelDictionary>();
  InvertedFileIndex index(2);
  index.Add(MakeTree("a{b{c d} b{c d} e}", dict));  // T1 (id 0)
  index.Add(MakeTree("a{b{c d b{e}} c d e}", dict));  // T2 (id 1)

  auto find_branch = [&](const std::string& name) -> BranchId {
    for (BranchId id = 0; id < index.branch_dict().size(); ++id) {
      if (index.branch_dict().Name(id, *dict) == name) return id;
    }
    ADD_FAILURE() << "branch not found: " << name;
    return 0;
  };

  const BranchId c_branch = find_branch("c(\xCE\xB5,d)");
  const auto& c_list = index.postings(c_branch);
  ASSERT_EQ(c_list.size(), 2u);
  EXPECT_EQ(c_list[0].tree_id, 0);
  EXPECT_EQ(c_list[0].count, 2);
  EXPECT_EQ(c_list[1].tree_id, 1);
  EXPECT_EQ(c_list[1].count, 2);
  // Positions of c(ε,d) in T1: (3,1) and (6,4), held by T1's profile.
  const BranchProfile& t1 = index.profiles()[0];
  const auto c_entry =
      std::find_if(t1.entries.begin(), t1.entries.end(),
                   [&](const BranchEntry& e) { return e.branch == c_branch; });
  ASSERT_NE(c_entry, t1.entries.end());
  EXPECT_EQ(c_entry->occurrences,
            (std::vector<std::pair<int, int>>{{3, 1}, {6, 4}}));

  const auto trees_containing = [&](const std::string& name) {
    std::vector<int> ids;
    for (const auto& posting : index.postings(find_branch(name))) {
      ids.push_back(posting.tree_id);
    }
    return ids;
  };
  EXPECT_EQ(trees_containing("b(c,b)"), std::vector<int>{0});
  EXPECT_EQ(trees_containing("b(c,c)"), std::vector<int>{1});
  EXPECT_EQ(trees_containing("a(b,\xCE\xB5)"), (std::vector<int>{0, 1}));
}

TEST(InvertedFileTest, ProfilesMatchDirectExtraction) {
  // The profiles an index builds as trees are added must be exactly the
  // profiles that direct per-tree extraction produces — through Add() per
  // tree, through AddAll(), and at q = 3.
  auto dict = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(dict, 4);
  Rng rng(311);
  std::vector<Tree> trees;
  for (int i = 0; i < 30; ++i) {
    trees.push_back(RandomTree(rng.UniformInt(1, 40), pool, dict, rng));
  }
  for (const int q : {2, 3}) {
    for (const bool whole_forest : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "q=" << q << (whole_forest ? " AddAll" : " per tree"));
      InvertedFileIndex index(q);
      if (whole_forest) {
        index.AddAll(trees);
      } else {
        for (const Tree& t : trees) index.Add(t);
      }
      EXPECT_TRUE(index.ValidateInvariants().ok());
      const std::vector<BranchProfile>& profiles = index.profiles();
      ASSERT_EQ(profiles.size(), trees.size());
      for (size_t i = 0; i < trees.size(); ++i) {
        const BranchProfile direct =
            BranchProfile::FromQuery(trees[i], index.branch_dict());
        ASSERT_EQ(profiles[i].entries.size(), direct.entries.size()) << i;
        EXPECT_EQ(profiles[i].tree_size, direct.tree_size);
        EXPECT_EQ(profiles[i].q, direct.q);
        EXPECT_EQ(profiles[i].factor, direct.factor);
        for (size_t e = 0; e < direct.entries.size(); ++e) {
          EXPECT_EQ(profiles[i].entries[e].branch, direct.entries[e].branch);
          EXPECT_EQ(profiles[i].entries[e].occurrences,
                    direct.entries[e].occurrences);
        }
      }
    }
  }
}

TEST(InvertedFileTest, VocabularySizeBoundedByTotalNodes) {
  // Section 4.4: the vocabulary is at most sum |Ti|.
  auto dict = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(dict, 2);
  Rng rng(313);
  InvertedFileIndex index(2);
  int64_t total_nodes = 0;
  for (int i = 0; i < 50; ++i) {
    Tree t = RandomTree(rng.UniformInt(1, 30), pool, dict, rng);
    total_nodes += t.size();
    index.Add(t);
  }
  EXPECT_LE(static_cast<int64_t>(index.branch_dict().size()), total_nodes);
}

TEST(InvertedFileTest, QLevelIndexing) {
  auto dict = std::make_shared<LabelDictionary>();
  InvertedFileIndex index(3);
  index.Add(MakeTree("a{b{c}}", dict));
  EXPECT_EQ(index.branch_dict().q(), 3);
  const std::vector<BranchProfile>& profiles = index.profiles();
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].factor, 9);
  EXPECT_EQ(profiles[0].total_count(), 3);
}

TEST(InvertedFileTest, EmptyIndexBuildsNoProfiles) {
  InvertedFileIndex index(2);
  EXPECT_EQ(index.tree_count(), 0);
  EXPECT_TRUE(index.profiles().empty());
}

}  // namespace
}  // namespace treesim
