#ifndef TREESIM_CORE_BINARY_BRANCH_H_
#define TREESIM_CORE_BINARY_BRANCH_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "tree/tree.h"
#include "util/safe_math.h"

namespace treesim {

/// Dense id of an interned (q-level) binary branch — one symbol of the
/// branch alphabet Γ of Definition 3 / Definition 5.
using BranchId = uint32_t;

/// The id LookupBranches gives a key its dictionary never interned. Intern()
/// never hands it out, so it matches no database branch and counts fully in
/// BDist and PosBDist, as a freshly interned id would.
inline constexpr BranchId kUnseenBranch = std::numeric_limits<BranchId>::max();

/// A branch key: the preorder label sequence of the perfect binary subtree
/// of height q-1 rooted at a node of the normalized B(T) (Definition 5),
/// ε-padded where B(T) has no node. Length is 2^q - 1; for the two-level
/// branch of Definition 2 this is (label(u), label(left), label(right)).
using BranchKey = std::vector<LabelId>;

/// Interns branch keys of one fixed level q into dense BranchIds. One
/// dictionary is shared by a dataset and all queries against it (the
/// vocabulary of the inverted file of Fig. 3a). Intern() is not
/// thread-safe; the const members are, once interning has stopped.
class BranchDictionary {
 public:
  /// `q` >= 2 (q = 1 records no structure; see Section 3.4).
  explicit BranchDictionary(int q);

  BranchDictionary(const BranchDictionary&) = delete;
  BranchDictionary& operator=(const BranchDictionary&) = delete;
  BranchDictionary(BranchDictionary&&) = default;
  BranchDictionary& operator=(BranchDictionary&&) = default;

  int q() const { return q_; }

  /// Key length 2^q - 1.
  int key_length() const { return key_length_; }

  /// The divisor of Theorems 3.2 / 3.3: 4(q-1) + 1, i.e. 5 for q = 2.
  int edit_distance_factor() const {
    return CheckedAdd(CheckedMul(4, q_ - 1), 1);
  }

  /// Returns the id of `key`, interning on first sight.
  /// `key.size()` must equal key_length().
  BranchId Intern(const BranchKey& key);

  /// Returns the id of `key` if known.
  std::optional<BranchId> Lookup(const BranchKey& key) const;

  /// The interned key of `id`.
  const BranchKey& Key(BranchId id) const;

  /// Number of distinct branches (|Γ| restricted to branches seen so far).
  size_t size() const { return keys_.size(); }

  /// Human-readable branch, e.g. "b(c,ε)" for a two-level branch.
  std::string Name(BranchId id, const LabelDictionary& labels) const;

 private:
  struct KeyHash {
    size_t operator()(const BranchKey& k) const;
  };

  int q_;
  int key_length_;
  std::unordered_map<BranchKey, BranchId, KeyHash> ids_;
  std::vector<BranchKey> keys_;
};

/// One branch occurrence: the q-level branch rooted at a node of T together
/// with that node's positional information (1-based preorder/postorder
/// positions in T — equivalently preorder/inorder in B(T), Section 4.2).
struct BranchOccurrence {
  BranchId branch;
  int pre;
  int post;
};

/// Extracts the q-level binary branch of EVERY node of `t` (each original
/// node roots exactly one branch in B(T)), interning keys into `dict`.
/// Runs in O(|T| * 2^q) by navigating the first-child/next-sibling links
/// directly — B(T) is never materialized. Result is in preorder of T.
std::vector<BranchOccurrence> ExtractBranches(const Tree& t,
                                              BranchDictionary& dict);

/// The same walk against a frozen `dict`, which it only reads: a key `dict`
/// has not interned becomes kUnseenBranch. Query profiles use this, so
/// queries never grow the dictionary.
std::vector<BranchOccurrence> LookupBranches(const Tree& t,
                                             const BranchDictionary& dict);

}  // namespace treesim

#endif  // TREESIM_CORE_BINARY_BRANCH_H_
