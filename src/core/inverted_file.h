#ifndef TREESIM_CORE_INVERTED_FILE_H_
#define TREESIM_CORE_INVERTED_FILE_H_

#include <vector>

#include "core/binary_branch.h"
#include "core/branch_profile.h"
#include "tree/tree.h"
#include "util/status.h"

namespace treesim {

/// The extended inverted file IFI of Algorithm 1 (Fig. 3a): a vocabulary of
/// binary branches plus, per branch, an inverted list of (tree id,
/// occurrence count), next to the vector representation of every indexed
/// tree. Each fact is held once: a tree's positions live in its profile,
/// built when the tree is added by the same function that builds query
/// profiles, and the inverted lists are those profiles transposed to counts.
/// Construction is O(sum |Ti|) space and O(sum |Ti| log |Ti|) time
/// (Section 4.4).
class InvertedFileIndex {
 public:
  /// One inverted-list element: how often the branch occurs in one tree.
  struct Posting {
    int tree_id = 0;
    int count = 0;
  };

  /// `q` is the branch level (2 = the binary branch of Definition 2).
  explicit InvertedFileIndex(int q) : dict_(q) {}

  InvertedFileIndex(const InvertedFileIndex&) = delete;
  InvertedFileIndex& operator=(const InvertedFileIndex&) = delete;
  InvertedFileIndex(InvertedFileIndex&&) = default;
  InvertedFileIndex& operator=(InvertedFileIndex&&) = default;

  /// Indexes one tree; returns its dense tree id (0, 1, 2, ...).
  int Add(const Tree& t);

  /// Indexes a whole forest with Add() per tree, ids in input order, then
  /// records the inverted-list lengths. Debug builds validate the whole
  /// index afterwards. Sequential by design: interning must follow tree
  /// order, and a pool over the per-tree key extraction that remains
  /// measured 1.3-1.8x slower than this loop.
  void AddAll(const std::vector<Tree>& trees);

  /// Number of indexed trees.
  int tree_count() const { return static_cast<int>(profiles_.size()); }

  /// The branch vocabulary. Query profiles only look keys up in it
  /// (BranchProfile::FromQuery), so ids agree with the database vectors and
  /// queries never grow it.
  const BranchDictionary& branch_dict() const { return dict_; }

  /// Inverted list of one branch, ordered by tree id.
  const std::vector<Posting>& postings(BranchId branch) const;

  /// The sparse vector + positional sequences of every indexed tree
  /// (Algorithm 1, lines 6-13), indexed by tree id.
  const std::vector<BranchProfile>& profiles() const { return profiles_; }

  /// Verifies the IFI invariants of Fig. 3a: every profile passes its own
  /// validator (positions inside [1, |Ti|] and ascending by preorder,
  /// occurrence total = |Ti|), inverted lists are strictly ascending by
  /// tree id, and the postings are exactly the profiles transposed: each
  /// posting's count equals its tree's entry for that branch, and each
  /// entry has its posting. O(index size). Debug builds run this at the end
  /// of every AddAll().
  Status ValidateInvariants() const;

 private:
  friend struct InvariantTestPeer;  // tests corrupt lists to hit validators

  BranchDictionary dict_;
  std::vector<std::vector<Posting>> lists_;  // indexed by BranchId
  std::vector<BranchProfile> profiles_;      // indexed by tree id
};

}  // namespace treesim

#endif  // TREESIM_CORE_INVERTED_FILE_H_
