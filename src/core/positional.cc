#include "core/positional.h"

#include <algorithm>
#include <cstdlib>

#include "util/hot.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/safe_math.h"

namespace treesim {
namespace {

/// Exact matching is only attempted when the edge grid stays small; beyond
/// it MaxPositionalMatching takes the 1-D relaxation (still sound).
constexpr int kExactMatchingGridLimit = 64 * 64;

/// One coordinate of an entry's (pre, post) occurrences, ascending.
std::vector<int> Ascending(const BranchEntry& e,
                           int std::pair<int, int>::*coordinate) {
  std::vector<int> xs;
  xs.reserve(e.occurrences.size());
  for (const auto& occurrence : e.occurrences) {
    xs.push_back(occurrence.*coordinate);
  }
  std::sort(xs.begin(), xs.end());
  return xs;
}

/// Kuhn's augmenting-path search: tries to (re)assign left node `i`.
bool TryAugment(const std::vector<std::pair<int, int>>& a,
                const std::vector<std::pair<int, int>>& b, int pr, int i,
                std::vector<char>& visited, std::vector<int>& match_of_b) {
  for (size_t j = 0; j < b.size(); ++j) {
    if (visited[j]) continue;
    if (std::abs(a[static_cast<size_t>(i)].first - b[j].first) > pr) continue;
    if (std::abs(a[static_cast<size_t>(i)].second - b[j].second) > pr)
      continue;
    visited[j] = 1;
    if (match_of_b[j] < 0 ||
        TryAugment(a, b, pr, match_of_b[j], visited, match_of_b)) {
      match_of_b[j] = i;
      return true;
    }
  }
  return false;
}

}  // namespace

int MaxMatching1D(const std::vector<int>& xs, const std::vector<int>& ys,
                  int pr) {
  int matched = 0;
  size_t i = 0;
  size_t j = 0;
  // Both sequences ascend, so the closest-unmatched-pair sweep is optimal:
  // skipping the smaller endpoint can never hurt (exchange argument).
  while (i < xs.size() && j < ys.size()) {
    const int diff = xs[i] - ys[j];
    if (std::abs(diff) <= pr) {
      ++matched;
      ++i;
      ++j;
    } else if (diff < 0) {
      ++i;
    } else {
      ++j;
    }
  }
  return matched;
}

int MaxMatchingExact(const std::vector<std::pair<int, int>>& a,
                     const std::vector<std::pair<int, int>>& b, int pr) {
  std::vector<int> match_of_b(b.size(), -1);
  std::vector<char> visited(b.size(), 0);
  int matched = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    std::fill(visited.begin(), visited.end(), 0);
    if (TryAugment(a, b, pr, static_cast<int>(i), visited, match_of_b)) {
      ++matched;
    }
  }
  return matched;
}

int MaxPositionalMatching(const BranchEntry& a, const BranchEntry& b,
                          int pr) {
  const int ca = a.count();
  const int cb = b.count();
  if (ca == 0 || cb == 0) return 0;
  // Single-occurrence branches (the common case) need no search at all.
  if (ca == 1 && cb == 1) {
    const auto& x = a.occurrences[0];
    const auto& y = b.occurrences[0];
    return (std::abs(x.first - y.first) <= pr &&
            std::abs(x.second - y.second) <= pr)
               ? 1
               : 0;
  }
  if (static_cast<int64_t>(ca) * cb <= kExactMatchingGridLimit) {
    return MaxMatchingExact(a.occurrences, b.occurrences, pr);
  }
  // Past the grid limit: Section 4.4's minimum of the two 1-D matchings.
  constexpr auto kPre = &std::pair<int, int>::first;
  constexpr auto kPost = &std::pair<int, int>::second;
  return std::min(MaxMatching1D(Ascending(a, kPre), Ascending(b, kPre), pr),
                  MaxMatching1D(Ascending(a, kPost), Ascending(b, kPost), pr));
}

int64_t TREESIM_HOT PositionalBranchDistance(const BranchProfile& a,
                                             const BranchProfile& b, int pr) {
  TREESIM_CHECK_EQ(a.q, b.q) << "profiles extracted at different levels";
  int64_t dist = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.entries.size() && j < b.entries.size()) {
    const BranchEntry& ea = a.entries[i];
    const BranchEntry& eb = b.entries[j];
    if (ea.branch == eb.branch) {
      const int m = MaxPositionalMatching(ea, eb, pr);
      dist = CheckedAdd<int64_t>(
          dist, CheckedSub(CheckedAdd(ea.count(), eb.count()),
                           CheckedMul(2, m)));
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

int OptimisticBound(const BranchProfile& a, const BranchProfile& b) {
  const int factor = a.factor;
  const int pr_min = std::abs(a.tree_size - b.tree_size);
  const int pr_max = std::max(a.tree_size, b.tree_size);
  auto bounded = [&](int pr) {
    return PositionalBranchDistance(a, b, pr) <=
           CheckedMul<int64_t>(factor, pr);
  };
  // PosBDist(pr) is non-increasing in pr, so `bounded` is monotone and at
  // pr_max it always holds (every equal-branch pair is within position
  // range, so PosBDist = BDist <= |T1|+|T2| <= factor * pr_max).
  TREESIM_COUNTER_INC("positional.searchlbound_calls");
  if (bounded(pr_min)) return pr_min;
  int lo = pr_min + 1;
  int hi = pr_max;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (bounded(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

bool RangeFilterPasses(const BranchProfile& a, const BranchProfile& b,
                       int tau) {
  if (tau < 0) return false;
  if (std::abs(a.tree_size - b.tree_size) > tau) return false;
  return PositionalBranchDistance(a, b, tau) <=
         CheckedMul<int64_t>(a.factor, tau);
}

}  // namespace treesim
