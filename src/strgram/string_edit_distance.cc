#include "strgram/string_edit_distance.h"

#include <algorithm>

#include "util/logging.h"

namespace treesim {

int StringEditDistance(const std::vector<LabelId>& a,
                       const std::vector<LabelId>& b) {
  // Keep the shorter sequence in the inner dimension (row buffer).
  const std::vector<LabelId>& longer = a.size() >= b.size() ? a : b;
  const std::vector<LabelId>& shorter = a.size() >= b.size() ? b : a;
  const int n = static_cast<int>(shorter.size());
  std::vector<int> row(static_cast<size_t>(n) + 1);
  for (int j = 0; j <= n; ++j) row[static_cast<size_t>(j)] = j;
  for (size_t i = 1; i <= longer.size(); ++i) {
    int diagonal = row[0];  // row[i-1][0]
    row[0] = static_cast<int>(i);
    for (int j = 1; j <= n; ++j) {
      const int up = row[static_cast<size_t>(j)];
      const int subst =
          diagonal +
          (longer[i - 1] == shorter[static_cast<size_t>(j - 1)] ? 0 : 1);
      row[static_cast<size_t>(j)] =
          std::min({up + 1, row[static_cast<size_t>(j - 1)] + 1, subst});
      diagonal = up;
    }
  }
  return row[static_cast<size_t>(n)];
}

int StringEditDistanceBounded(const std::vector<LabelId>& a,
                              const std::vector<LabelId>& b, int limit) {
  TREESIM_CHECK_GE(limit, 0);
  const std::vector<LabelId>& longer = a.size() >= b.size() ? a : b;
  const std::vector<LabelId>& shorter = a.size() >= b.size() ? b : a;
  const int m = static_cast<int>(longer.size());
  const int n = static_cast<int>(shorter.size());
  // The distance never exceeds m, so a wider band changes nothing; the
  // clamp keeps `i + limit` and `limit + 1` from overflowing at INT_MAX.
  limit = std::min(limit, m);
  if (m - n > limit) return limit + 1;
  if (n == 0) return m;  // m <= limit here; pure insertions

  // Ukkonen's band: only cells with |i - j| <= limit can stay <= limit.
  constexpr int kBig = 1 << 29;
  std::vector<int> row(static_cast<size_t>(n) + 1, kBig);
  for (int j = 0; j <= std::min(n, limit); ++j) {
    row[static_cast<size_t>(j)] = j;
  }
  for (int i = 1; i <= m; ++i) {
    const int lo = std::max(1, i - limit);
    const int hi = std::min(n, i + limit);
    if (lo > hi) return limit + 1;
    int diagonal = row[static_cast<size_t>(lo - 1)];  // row[i-1][lo-1]
    // Outside-band cell to the left of the window.
    row[static_cast<size_t>(lo - 1)] = (lo - 1 == 0) ? i : kBig;
    int best = kBig;
    for (int j = lo; j <= hi; ++j) {
      const int up = row[static_cast<size_t>(j)];
      const int subst =
          diagonal +
          (longer[static_cast<size_t>(i - 1)] ==
                   shorter[static_cast<size_t>(j - 1)]
               ? 0
               : 1);
      row[static_cast<size_t>(j)] = std::min(
          {up + 1, row[static_cast<size_t>(j - 1)] + 1, subst, kBig});
      diagonal = up;
      best = std::min(best, row[static_cast<size_t>(j)]);
    }
    if (hi < n) row[static_cast<size_t>(hi + 1)] = kBig;  // band edge
    if (best > limit) return limit + 1;  // the whole band overflowed
  }
  const int result = row[static_cast<size_t>(n)];
  return result > limit ? limit + 1 : result;
}

}  // namespace treesim
