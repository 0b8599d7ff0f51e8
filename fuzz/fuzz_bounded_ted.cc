// libFuzzer harness for the bounded-TED refine engine (ted/bounded_ted.h).
//
// Input layout: byte 0 seeds the threshold choice; the rest splits at the
// first '\n' into two bracket-notation trees. On every accepted pair the
// harness sweeps thresholds across the interesting boundary (below, at and
// above the true distance, plus the degenerate extremes) and asserts the
// bounded verifier's contract against the unbounded Zhang–Shasha kernel:
//   - result == min(EDist, tau + 1) for every tau >= 0,
//   - the weighted variant under unit costs agrees bit-for-bit at
//     tau = EDist and rejects with a value > tau below it,
//   - on small pairs the independent O(n^4) naive oracle agrees with the
//     Zhang–Shasha reference itself (differential anchor inside the fuzz
//     loop, so a corpus minimized against one kernel cannot mask the
//     other).
//
// An input the harness rejects before the kernel (too short or long, no
// newline, a tree that does not parse or has more than kMaxNodes nodes)
// returns -1, libFuzzer's "do not add to the corpus"; the standalone replay
// fails on such a corpus file, so a seed that never reaches the kernel
// cannot pass as checked.
//
// Built with -fsanitize=fuzzer under clang; with other toolchains the
// standalone driver in standalone_main.cc replays corpus files through the
// same entry point (see fuzz/CMakeLists.txt).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>

#include "ted/bounded_ted.h"
#include "ted/cost_model.h"
#include "ted/naive_ted.h"
#include "ted/zhang_shasha.h"
#include "tree/bracket.h"
#include "tree/tree.h"
#include "util/logging.h"
#include "util/status.h"

namespace {

// The DP is O(n^2 * keyroots^2); bigger trees only slow the fuzzer down
// without reaching new code.
constexpr int kMaxNodes = 48;
// The naive oracle is O(n^4) with memoization — affordable only on small
// pairs.
constexpr int kMaxNaiveNodes = 24;
constexpr size_t kMaxInputBytes = 1 << 12;

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 2 || size > kMaxInputBytes) return -1;
  const uint8_t tau_byte = data[0];
  const std::string_view rest(reinterpret_cast<const char*>(data + 1),
                              size - 1);
  const size_t split = rest.find('\n');
  if (split == std::string_view::npos) return -1;

  const auto labels = std::make_shared<treesim::LabelDictionary>();
  treesim::StatusOr<treesim::Tree> parsed1 =
      treesim::ParseBracket(rest.substr(0, split), labels);
  if (!parsed1.ok()) return -1;
  treesim::StatusOr<treesim::Tree> parsed2 =
      treesim::ParseBracket(rest.substr(split + 1), labels);
  if (!parsed2.ok()) return -1;
  const treesim::Tree& t1 = parsed1.value();
  const treesim::Tree& t2 = parsed2.value();
  if (t1.size() > kMaxNodes || t2.size() > kMaxNodes) return -1;

  const treesim::TedTree v1 = treesim::TedTree::FromTree(t1);
  const treesim::TedTree v2 = treesim::TedTree::FromTree(t2);
  const int exact = treesim::TreeEditDistance(v1, v2);
  const int n_sum = t1.size() + t2.size();
  TREESIM_CHECK(exact >= 0 && exact <= n_sum);

  if (t1.size() <= kMaxNaiveNodes && t2.size() <= kMaxNaiveNodes) {
    const int naive = treesim::NaiveTreeEditDistance(t1, t2);
    TREESIM_CHECK_EQ(naive, exact)
        << "oracle disagreement |T1|=" << t1.size() << " |T2|=" << t2.size();
  }

  const int taus[] = {0,         1,
                      exact - 1, exact,
                      exact + 1, static_cast<int>(tau_byte) % (n_sum + 2),
                      n_sum,     std::numeric_limits<int>::max()};
  for (const int tau : taus) {
    if (tau < 0) continue;
    const int bounded = treesim::BoundedTreeEditDistance(v1, v2, tau);
    const int expected = tau < exact ? tau + 1 : exact;
    TREESIM_CHECK_EQ(bounded, expected)
        << "tau=" << tau << " EDist=" << exact << " |T1|=" << t1.size()
        << " |T2|=" << t2.size();
  }
  TREESIM_CHECK_EQ(treesim::BoundedTreeEditDistance(v1, v2, -1), 0);

  const treesim::CostModel& unit = treesim::UnitCostModel::Get();
  const double wexact = static_cast<double>(exact);
  TREESIM_CHECK_EQ(
      treesim::BoundedTreeEditDistanceWeighted(v1, v2, wexact, unit), wexact);
  if (exact > 0) {
    const double tight = wexact - 0.5;
    TREESIM_CHECK(
        treesim::BoundedTreeEditDistanceWeighted(v1, v2, tight, unit) > tight);
  }
  return 0;
}
