#include "core/binary_branch.h"

#include <utility>

#include "tree/traversal.h"
#include "util/logging.h"
#include "util/safe_math.h"

namespace treesim {

// FNV-1a mixing wraps around uint64 by design.
TREESIM_NO_SANITIZE_INTEGER
size_t BranchDictionary::KeyHash::operator()(const BranchKey& k) const {
  // FNV-1a over the label ids.
  uint64_t h = 1469598103934665603ULL;
  for (const LabelId l : k) {
    h ^= static_cast<uint64_t>(l);
    h *= 1099511628211ULL;
  }
  return static_cast<size_t>(h);
}

BranchDictionary::BranchDictionary(int q) : q_(q) {
  TREESIM_CHECK_GE(q, 2) << "branch level q must be >= 2 (Section 3.4)";
  TREESIM_CHECK_LE(q, 20) << "branch level q unreasonably large";
  key_length_ = CheckedSub(1 << q, 1);
}

BranchId BranchDictionary::Intern(const BranchKey& key) {
  TREESIM_CHECK_EQ(static_cast<int>(key.size()), key_length_);
  auto it = ids_.find(key);
  if (it != ids_.end()) return it->second;
  TREESIM_CHECK_LT(keys_.size(), size_t{kUnseenBranch});
  const BranchId id = static_cast<BranchId>(keys_.size());
  keys_.push_back(key);
  ids_.emplace(key, id);
  return id;
}

std::optional<BranchId> BranchDictionary::Lookup(const BranchKey& key) const {
  auto it = ids_.find(key);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

const BranchKey& BranchDictionary::Key(BranchId id) const {
  TREESIM_CHECK_LT(static_cast<size_t>(id), keys_.size());
  return keys_[static_cast<size_t>(id)];
}

std::string BranchDictionary::Name(BranchId id,
                                   const LabelDictionary& labels) const {
  const BranchKey& key = Key(id);
  // Render the preorder key back as nested "root(left,right)" terms.
  std::string out;
  size_t cursor = 0;
  // Recursive lambda over the preorder layout: a subtree of height h
  // occupies 2^h - 1 consecutive slots.
  auto render = [&](auto&& self, int height) -> void {
    out.append(labels.Name(key[cursor++]));
    if (height <= 1) return;
    out.push_back('(');
    self(self, height - 1);
    out.push_back(',');
    self(self, height - 1);
    out.push_back(')');
  };
  render(render, q_);
  return out;
}

namespace {

/// Fills `key` in preorder with the perfect height-(q-1) binary subtree of
/// B(T) rooted at `root`. In B(T): left(u) = first child of u in T,
/// right(u) = next sibling of u in T; children of ε are ε. The recursion
/// depth is bounded by q.
void FillBranchKey(const Tree& t, NodeId root, int q, BranchKey& key) {
  size_t cursor = 0;
  auto fill = [&](auto&& self, NodeId node, int level) -> void {
    key[cursor++] = (node == kInvalidNode) ? kEpsilonLabel : t.label(node);
    if (level + 1 >= q) return;
    if (node == kInvalidNode) {
      self(self, kInvalidNode, level + 1);
      self(self, kInvalidNode, level + 1);
    } else {
      self(self, t.first_child(node), level + 1);
      self(self, t.next_sibling(node), level + 1);
    }
  };
  fill(fill, root, 0);
}

/// The one key walk of ExtractBranches and LookupBranches: the branch of
/// every node of `t` in preorder with its positions; `to_id` turns each key
/// into its BranchId.
template <typename ToId>
std::vector<BranchOccurrence> WalkBranches(const Tree& t,
                                           const BranchDictionary& dict,
                                           ToId to_id) {
  TREESIM_CHECK(!t.empty());
  const TraversalPositions positions = ComputePositions(t);
  BranchKey key(static_cast<size_t>(dict.key_length()), kEpsilonLabel);
  std::vector<BranchOccurrence> out;
  out.reserve(static_cast<size_t>(t.size()));
  for (const NodeId u : PreorderSequence(t)) {
    FillBranchKey(t, u, dict.q(), key);
    out.push_back(BranchOccurrence{
        to_id(key), positions.pre[static_cast<size_t>(u)],
        positions.post[static_cast<size_t>(u)]});
  }
  return out;
}

}  // namespace

std::vector<BranchOccurrence> ExtractBranches(const Tree& t,
                                              BranchDictionary& dict) {
  return WalkBranches(t, dict, [&dict](const BranchKey& key) {
    return dict.Intern(key);
  });
}

std::vector<BranchOccurrence> LookupBranches(const Tree& t,
                                             const BranchDictionary& dict) {
  return WalkBranches(t, dict, [&dict](const BranchKey& key) {
    return dict.Lookup(key).value_or(kUnseenBranch);
  });
}

}  // namespace treesim
