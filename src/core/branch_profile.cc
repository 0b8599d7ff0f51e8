#include "core/branch_profile.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>

#include "util/hot.h"
#include "util/logging.h"
#include "util/safe_math.h"
#include "util/status.h"

namespace treesim {

int BranchProfile::total_count() const {
  int total = 0;
  for (const BranchEntry& e : entries) total = CheckedAdd(total, e.count());
  return total;
}

BranchProfile BranchProfile::FromTree(const Tree& t, BranchDictionary& dict) {
  std::vector<BranchOccurrence> occurrences = ExtractBranches(t, dict);
  return FromOccurrences(t.size(), dict, std::move(occurrences));
}

BranchProfile BranchProfile::FromQuery(const Tree& t,
                                       const BranchDictionary& dict) {
  return FromOccurrences(t.size(), dict, LookupBranches(t, dict));
}

BranchProfile BranchProfile::FromOccurrences(
    int tree_size, const BranchDictionary& dict,
    std::vector<BranchOccurrence> occurrences) {
  BranchProfile p;
  p.tree_size = tree_size;
  p.q = dict.q();
  p.factor = dict.edit_distance_factor();
  std::sort(occurrences.begin(), occurrences.end(),
            [](const BranchOccurrence& x, const BranchOccurrence& y) {
              if (x.branch != y.branch) return x.branch < y.branch;
              return x.pre < y.pre;
            });
  // Run-length over the (branch, pre)-sorted occurrences: count the
  // distinct branches first so every vector below is sized exactly once.
  size_t distinct = 0;
  for (size_t i = 0; i < occurrences.size(); ++i) {
    if (i == 0 || occurrences[i - 1].branch != occurrences[i].branch) {
      ++distinct;
    }
  }
  p.entries.reserve(distinct);
  for (size_t i = 0; i < occurrences.size();) {
    size_t j = i;
    while (j < occurrences.size() &&
           occurrences[j].branch == occurrences[i].branch) {
      ++j;
    }
    BranchEntry e{occurrences[i].branch, {}};
    e.occurrences.reserve(j - i);
    for (size_t o = i; o < j; ++o) {
      e.occurrences.emplace_back(occurrences[o].pre, occurrences[o].post);
    }
    p.entries.push_back(std::move(e));
    i = j;
  }
  TREESIM_DCHECK_OK(p.ValidateInvariants());
  return p;
}

Status TREESIM_COLD BranchProfile::ValidateInvariants() const {
  if (tree_size < 0) return Status::Internal("negative tree size");
  if (q < 2) return Status::Internal("branch level q must be >= 2");
  if (factor != 4 * (q - 1) + 1) {
    return Status::Internal("factor disagrees with 4(q-1)+1 for q=" +
                            std::to_string(q));
  }
  int total = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    const BranchEntry& e = entries[i];
    if (i > 0 && entries[i - 1].branch >= e.branch) {
      return Status::Internal("entries not strictly ascending by branch id");
    }
    if (e.occurrences.empty()) {
      return Status::Internal("zero-count entry for branch " +
                              std::to_string(e.branch));
    }
    for (size_t o = 0; o < e.occurrences.size(); ++o) {
      const auto& [pre, post] = e.occurrences[o];
      if (pre < 1 || pre > tree_size || post < 1 || post > tree_size) {
        return Status::Internal("position outside [1, |T|] for branch " +
                                std::to_string(e.branch));
      }
      if (o > 0 && e.occurrences[o - 1].first >= pre) {
        return Status::Internal("occurrences not ascending by preorder for "
                                "branch " + std::to_string(e.branch));
      }
    }
    total = CheckedAdd(total, e.count());
  }
  // Every node of T roots exactly one branch (Definition 3).
  if (total != tree_size) {
    return Status::Internal("occurrence total " + std::to_string(total) +
                            " != tree size " + std::to_string(tree_size));
  }
  return Status::Ok();
}

int64_t TREESIM_HOT BranchDistance(const BranchProfile& a,
                                   const BranchProfile& b) {
  TREESIM_CHECK_EQ(a.q, b.q) << "profiles extracted at different levels";
  int64_t dist = 0;
  size_t i = 0;
  size_t j = 0;
  // Merge over the two id-sorted sparse vectors.
  while (i < a.entries.size() && j < b.entries.size()) {
    const BranchEntry& ea = a.entries[i];
    const BranchEntry& eb = b.entries[j];
    if (ea.branch == eb.branch) {
      dist = CheckedAdd<int64_t>(dist, std::abs(ea.count() - eb.count()));
      ++i;
      ++j;
    } else if (ea.branch < eb.branch) {
      dist = CheckedAdd<int64_t>(dist, ea.count());
      ++i;
    } else {
      dist = CheckedAdd<int64_t>(dist, eb.count());
      ++j;
    }
  }
  for (; i < a.entries.size(); ++i) {
    dist = CheckedAdd<int64_t>(dist, a.entries[i].count());
  }
  for (; j < b.entries.size(); ++j) {
    dist = CheckedAdd<int64_t>(dist, b.entries[j].count());
  }
  return dist;
}

int TREESIM_HOT BranchDistanceLowerBound(const BranchProfile& a,
                                         const BranchProfile& b) {
  const int64_t dist = BranchDistance(a, b);
  const int64_t factor = a.factor;
  // ceil(BDist / [4(q-1)+1]) — Theorem 3.2's lower bound. A wrapped sum
  // here would under- or over-state the bound and corrupt pruning, hence
  // the checked ceiling arithmetic.
  return CheckedCast<int>(CheckedAdd(dist, factor - 1) / factor);
}

}  // namespace treesim
