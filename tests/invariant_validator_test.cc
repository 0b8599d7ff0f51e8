// Tests for the debug-mode invariant validators: valid structures pass,
// corrupted structures are caught with a diagnostic, and TREESIM_CHECK_OK
// turns a validator failure into a process abort (the DCHECK_OK behavior of
// debug builds). Corruption goes through InvariantTestPeer, a test-only
// friend of the core data structures.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/binary_branch.h"
#include "core/binary_tree.h"
#include "core/branch_profile.h"
#include "core/inverted_file.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "tree/tree.h"
#include "util/logging.h"
#include "util/status.h"

namespace treesim {

/// Test-only backdoor into the private state of the validated structures so
/// tests can corrupt them and watch ValidateInvariants() trip.
struct InvariantTestPeer {
  static std::vector<Tree::Node>& Nodes(Tree& t) { return t.nodes_; }
  static std::vector<NormalizedBinaryTree::BNode>& Nodes(
      NormalizedBinaryTree& b) {
    return b.nodes_;
  }
  static int& OriginalCount(NormalizedBinaryTree& b) {
    return b.original_count_;
  }
  static std::vector<std::vector<InvertedFileIndex::Posting>>& Lists(
      InvertedFileIndex& index) {
    return index.lists_;
  }
  static std::vector<BranchProfile>& Profiles(InvertedFileIndex& index) {
    return index.profiles_;
  }
};

namespace {

using testing::MakeTree;

TEST(TreeInvariantsTest, ValidTreesPass) {
  EXPECT_TRUE(Tree().ValidateInvariants().ok());
  const Tree t = MakeTree("a{b{c d} e}");
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(TreeInvariantsTest, BrokenParentLinkIsCaught) {
  Tree t = MakeTree("a{b{c d} e}");
  // Node 2 ("c") claims the root as parent while sitting in b's child list.
  InvariantTestPeer::Nodes(t)[2].parent = 0;
  const Status s = t.ValidateInvariants();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("parent link"), std::string::npos) << s;
}

TEST(TreeInvariantsTest, SiblingCycleIsCaught) {
  Tree t = MakeTree("a{b c d}");
  // d's next_sibling loops back to b: the child list of the root cycles.
  InvariantTestPeer::Nodes(t)[3].next_sibling = 1;
  EXPECT_FALSE(t.ValidateInvariants().ok());
}

TEST(TreeInvariantsTest, OutOfRangeLinkIsCaught) {
  Tree t = MakeTree("a{b}");
  InvariantTestPeer::Nodes(t)[1].first_child = 99;
  const Status s = t.ValidateInvariants();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("out of range"), std::string::npos) << s;
}

TEST(TreeInvariantsTest, UninternedLabelIsCaught) {
  Tree t = MakeTree("a{b}");
  InvariantTestPeer::Nodes(t)[1].label = 12345;
  EXPECT_FALSE(t.ValidateInvariants().ok());
}

TEST(TreeInvariantsDeathTest, CheckOkAbortsOnCorruptTree) {
  Tree t = MakeTree("a{b c}");
  InvariantTestPeer::Nodes(t)[2].next_sibling = 1;
  EXPECT_DEATH(TREESIM_CHECK_OK(t.ValidateInvariants()), "CHECK failed");
}

TEST(BinaryTreeInvariantsTest, ValidTransformPasses) {
  const Tree t = MakeTree("a{b{c d} e}");
  const NormalizedBinaryTree b = NormalizedBinaryTree::FromTree(t);
  EXPECT_TRUE(b.ValidateInvariants().ok());
  EXPECT_TRUE(b.ValidateInvariants(&t).ok());
}

TEST(BinaryTreeInvariantsTest, EpsilonWithLabelIsCaught) {
  const Tree t = MakeTree("a{b}");
  NormalizedBinaryTree b = NormalizedBinaryTree::FromTree(t);
  for (auto& node : InvariantTestPeer::Nodes(b)) {
    if (node.original == kInvalidNode) {
      node.label = 7;  // an ε pad must keep the ε label
      break;
    }
  }
  const Status s = b.ValidateInvariants();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("non-\xCE\xB5 label"), std::string::npos) << s;
}

TEST(BinaryTreeInvariantsTest, MissingPaddingIsCaught) {
  const Tree t = MakeTree("a{b}");
  NormalizedBinaryTree b = NormalizedBinaryTree::FromTree(t);
  // Cut the padded right child of the root: originals must have BOTH
  // children in the normalized form.
  InvariantTestPeer::Nodes(b)[0].right = NormalizedBinaryTree::kNoChild;
  EXPECT_FALSE(b.ValidateInvariants().ok());
}

TEST(BinaryTreeInvariantsTest, CountMismatchIsCaught) {
  const Tree t = MakeTree("a{b c}");
  NormalizedBinaryTree b = NormalizedBinaryTree::FromTree(t);
  InvariantTestPeer::OriginalCount(b) = 1;
  EXPECT_FALSE(b.ValidateInvariants().ok());
}

TEST(BinaryTreeInvariantsDeathTest, CheckOkAbortsOnCorruptTransform) {
  const Tree t = MakeTree("a{b}");
  NormalizedBinaryTree b = NormalizedBinaryTree::FromTree(t);
  InvariantTestPeer::Nodes(b)[0].left = 0;  // self-loop
  EXPECT_DEATH(TREESIM_CHECK_OK(b.ValidateInvariants()), "CHECK failed");
}

TEST(BranchProfileInvariantsTest, ValidProfilePasses) {
  BranchDictionary dict(2);
  const BranchProfile p =
      BranchProfile::FromTree(MakeTree("a{b{c d} e}"), dict);
  EXPECT_TRUE(p.ValidateInvariants().ok());
}

TEST(BranchProfileInvariantsTest, UnsortedEntriesAreCaught) {
  BranchDictionary dict(2);
  BranchProfile p = BranchProfile::FromTree(MakeTree("a{b{c d} e}"), dict);
  ASSERT_GE(p.entries.size(), 2u);
  std::swap(p.entries.front(), p.entries.back());
  const Status s = p.ValidateInvariants();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("ascending"), std::string::npos) << s;
}

TEST(BranchProfileInvariantsTest, DroppedOccurrenceIsCaught) {
  BranchDictionary dict(2);
  BranchProfile p = BranchProfile::FromTree(MakeTree("a{b{c d} e}"), dict);
  // Total occurrences must equal |T|; drop one silently.
  p.entries.back().occurrences.pop_back();
  if (p.entries.back().occurrences.empty()) p.entries.pop_back();
  EXPECT_FALSE(p.ValidateInvariants().ok());
}

TEST(BranchProfileInvariantsTest, WrongFactorIsCaught) {
  BranchDictionary dict(3);
  BranchProfile p = BranchProfile::FromTree(MakeTree("a{b}"), dict);
  p.factor = 5;  // q=3 requires 4(3-1)+1 = 9
  const Status s = p.ValidateInvariants();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("4(q-1)+1"), std::string::npos) << s;
}

TEST(InvertedFileInvariantsTest, ValidIndexPasses) {
  const auto labels = std::make_shared<LabelDictionary>();
  InvertedFileIndex index(2);
  index.Add(MakeTree("a{b{c d} e}", labels));
  index.Add(MakeTree("a{b c}", labels));
  index.Add(MakeTree("x{y{z}}", labels));
  EXPECT_TRUE(index.ValidateInvariants().ok());
}

TEST(InvertedFileInvariantsTest, UnsortedPostingsAreCaught) {
  const auto labels = std::make_shared<LabelDictionary>();
  InvertedFileIndex index(2);
  index.Add(MakeTree("a{b}", labels));
  index.Add(MakeTree("a{b}", labels));
  // Both trees share every branch, so some list has two postings to swap.
  bool swapped = false;
  for (auto& list : InvariantTestPeer::Lists(index)) {
    if (list.size() >= 2) {
      std::swap(list.front(), list.back());
      swapped = true;
      break;
    }
  }
  ASSERT_TRUE(swapped);
  const Status s = index.ValidateInvariants();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("ascending"), std::string::npos) << s;
}

TEST(InvertedFileInvariantsTest, PositionOutOfRangeIsCaught) {
  const auto labels = std::make_shared<LabelDictionary>();
  InvertedFileIndex index(2);
  index.Add(MakeTree("a{b c}", labels));
  InvariantTestPeer::Profiles(index)
      .front()
      .entries.front()
      .occurrences.front()
      .first = 99;
  const Status s = index.ValidateInvariants();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("outside [1, |T|]"), std::string::npos) << s;
}

TEST(InvertedFileInvariantsTest, SizeTotalMismatchIsCaught) {
  const auto labels = std::make_shared<LabelDictionary>();
  InvertedFileIndex index(2);
  index.Add(MakeTree("a{b c}", labels));
  // Claim the tree is bigger than its occurrence total.
  InvariantTestPeer::Profiles(index).front().tree_size += 1;
  EXPECT_FALSE(index.ValidateInvariants().ok());
}

TEST(InvertedFileInvariantsTest, OccurrenceMovedBetweenTreesIsCaught) {
  const auto labels = std::make_shared<LabelDictionary>();
  InvertedFileIndex index(2);
  // Two copies of one tree whose b(ε,b) and c(ε,c) each occur twice.
  index.Add(MakeTree("a{b b b c c c}", labels));
  index.Add(MakeTree("a{b b b c c c}", labels));
  // Move one occurrence from tree 0 to tree 1 in one list and one back in
  // another: per-tree and per-list totals, list order and positive counts
  // all survive, so only the postings-vs-profiles check can fire.
  std::vector<std::vector<InvertedFileIndex::Posting>*> doubled;
  for (auto& list : InvariantTestPeer::Lists(index)) {
    if (list.size() == 2 && list[0].count >= 2 && list[1].count >= 2) {
      doubled.push_back(&list);
    }
  }
  ASSERT_GE(doubled.size(), 2u);
  (*doubled[0])[0].count -= 1;
  (*doubled[0])[1].count += 1;
  (*doubled[1])[0].count += 1;
  (*doubled[1])[1].count -= 1;
  const Status s = index.ValidateInvariants();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("profile"), std::string::npos) << s;
}

TEST(InvertedFileInvariantsDeathTest, CheckOkAbortsOnCorruptIndex) {
  const auto labels = std::make_shared<LabelDictionary>();
  InvertedFileIndex index(2);
  index.Add(MakeTree("a{b}", labels));
  InvariantTestPeer::Profiles(index).front().tree_size = 0;
  EXPECT_DEATH(TREESIM_CHECK_OK(index.ValidateInvariants()), "CHECK failed");
}

TEST(CheckMacrosTest, CheckOpPrintsBothOperandValues) {
  const int lhs = 4;
  const int rhs = 5;
  EXPECT_DEATH(TREESIM_CHECK_EQ(lhs, rhs), "lhs == rhs \\(4 vs\\. 5\\)");
  EXPECT_DEATH(TREESIM_CHECK_GT(lhs, rhs) << "extra context",
               "lhs > rhs \\(4 vs\\. 5\\) extra context");
}

TEST(CheckMacrosTest, CheckOpEvaluatesOperandsOnce) {
  int evaluations = 0;
  const auto bump = [&evaluations] { return ++evaluations; };
  TREESIM_CHECK_EQ(bump(), 1);
  EXPECT_EQ(evaluations, 1);
}

TEST(CheckMacrosTest, CheckOkPassesAndAborts) {
  TREESIM_CHECK_OK(Status::Ok());  // no-op on OK
  EXPECT_DEATH(TREESIM_CHECK_OK(Status::Internal("boom")), "boom");
}

TEST(CheckMacrosTest, DcheckFamilyMatchesBuildType) {
#ifdef NDEBUG
  // Release: compiled out, operands not evaluated.
  int evaluations = 0;
  const auto bump = [&evaluations] { return ++evaluations; };
  TREESIM_DCHECK_EQ(bump(), 12345);
  TREESIM_DCHECK_OK(Status::Internal("never evaluated"));
  EXPECT_EQ(evaluations, 0);
#else
  EXPECT_DEATH(TREESIM_DCHECK_EQ(1, 2), "1 == 2 \\(1 vs\\. 2\\)");
  EXPECT_DEATH(TREESIM_DCHECK_OK(Status::Internal("boom")), "boom");
#endif
}

}  // namespace
}  // namespace treesim
