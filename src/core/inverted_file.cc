#include "core/inverted_file.h"

#include <string>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/status.h"

namespace treesim {

int InvertedFileIndex::Add(const Tree& t) {
  // Traverse(), insertPreOrder()/insertPostOrder() of Algorithm 1: one pass
  // produces every branch occurrence with both positions; appending at the
  // tail of the inverted list keeps each update O(1).
  std::vector<BranchOccurrence> occurrences = ExtractBranches(t, dict_);
  TREESIM_COUNTER_INC("index.trees_added");
  TREESIM_COUNTER_ADD("index.branch_occurrences",
                      static_cast<int64_t>(occurrences.size()));
  const int tree_id = tree_count();
  profiles_.push_back(
      BranchProfile::FromOccurrences(t.size(), dict_, std::move(occurrences)));
  // A profile holds each branch once and tree ids only grow, so appending
  // keeps every inverted list strictly ascending by tree id.
  if (lists_.size() < dict_.size()) lists_.resize(dict_.size());
  for (const BranchEntry& entry : profiles_.back().entries) {
    lists_[static_cast<size_t>(entry.branch)].push_back(
        Posting{tree_id, entry.count()});
  }
  TREESIM_GAUGE_SET("index.distinct_branches",
                    static_cast<int64_t>(dict_.size()));
  return tree_id;
}

void InvertedFileIndex::AddAll(const std::vector<Tree>& trees) {
  for (const Tree& t : trees) Add(t);
  TREESIM_DCHECK_OK(ValidateInvariants());
  // Inverted-list skew is what decides whether the Section 5 candidate
  // counts stay small, so the length distribution lands in the registry.
  for (const std::vector<Posting>& list : lists_) {
    TREESIM_HISTOGRAM_RECORD("index.inverted_list_length", CountBuckets(),
                             static_cast<int64_t>(list.size()));
  }
}

const std::vector<InvertedFileIndex::Posting>& InvertedFileIndex::postings(
    BranchId branch) const {
  TREESIM_CHECK_LT(static_cast<size_t>(branch), lists_.size());
  return lists_[static_cast<size_t>(branch)];
}

Status InvertedFileIndex::ValidateInvariants() const {
  if (lists_.size() > dict_.size()) {
    return Status::Internal("more inverted lists than interned branches");
  }
  for (size_t t = 0; t < profiles_.size(); ++t) {
    const BranchProfile& profile = profiles_[t];
    if (profile.q != dict_.q()) {
      return Status::Internal("profile of tree " + std::to_string(t) +
                              " extracted at another branch level");
    }
    const Status status = profile.ValidateInvariants();
    if (!status.ok()) {
      return Status::Internal("tree " + std::to_string(t) + ": " +
                              status.message());
    }
  }
  // Branch ids ascend across the lists and within each profile, so walking
  // the lists in order must meet every tree's entries in order, one cursor
  // per tree: the postings are then exactly the profiles' counts.
  std::vector<size_t> next_entry(profiles_.size(), 0);
  for (size_t branch = 0; branch < lists_.size(); ++branch) {
    const std::vector<Posting>& list = lists_[branch];
    for (size_t p = 0; p < list.size(); ++p) {
      const Posting& posting = list[p];
      if (posting.tree_id < 0 || posting.tree_id >= tree_count()) {
        return Status::Internal("posting names unknown tree " +
                                std::to_string(posting.tree_id));
      }
      if (p > 0 && list[p - 1].tree_id >= posting.tree_id) {
        return Status::Internal("postings not strictly ascending by tree id "
                                "for branch " + std::to_string(branch));
      }
      const size_t tree = static_cast<size_t>(posting.tree_id);
      const std::vector<BranchEntry>& entries = profiles_[tree].entries;
      size_t& e = next_entry[tree];
      if (e >= entries.size() || entries[e].branch != branch ||
          entries[e].count() != posting.count) {
        return Status::Internal("posting of branch " + std::to_string(branch) +
                                " disagrees with the profile of tree " +
                                std::to_string(tree));
      }
      ++e;
    }
  }
  for (size_t t = 0; t < profiles_.size(); ++t) {
    if (next_entry[t] != profiles_[t].entries.size()) {
      return Status::Internal("profile of tree " + std::to_string(t) +
                              " has entries missing from the inverted lists");
    }
  }
  return Status::Ok();
}

}  // namespace treesim
