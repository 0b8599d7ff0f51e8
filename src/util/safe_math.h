#ifndef TREESIM_UTIL_SAFE_MATH_H_
#define TREESIM_UTIL_SAFE_MATH_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>

#include "util/logging.h"

/// Checked integer arithmetic for every distance/count accumulator in the
/// library. The soundness of filter-and-refine search rests on integer
/// values: BDist is an L1 sum over branch-vector counts, Theorem 3.2's
/// BDist <= [4(q-1)+1] * EDist makes pruning lossless, and the Zhang-Shasha
/// refinement fills O(n^2) cost matrices. A silent wraparound in any of
/// these can turn a lower bound into an over-estimate and make range/k-NN
/// queries drop true results. Policy:
///
///   * Debug builds (!NDEBUG): overflow is a fatal TREESIM_CHECK failure
///     with both operands printed.
///   * Release builds: the result saturates at the type's min/max and a
///     global atomic counter is bumped (SafeMathStats::saturations()), so
///     production keeps serving while monitoring can alarm. A saturated
///     distance stays an over-estimate of nothing: min-clamps keep lower
///     bounds sound (the true value is even larger), and the counter makes
///     the event observable instead of silent.
///
/// tools/analyze_treesim.py (pass B) bans unchecked `+=` / `*` on
/// count/distance-named accumulators and raw narrowing static_casts of them
/// in src/{core,strgram,ted,filters,search}; this header is the sanctioned
/// replacement.

/// Marks a function whose integer wraparound is INTENTIONAL (hash mixing,
/// PRNG state transitions) so clang's -fsanitize=integer CI job does not
/// flag it. Expands to nothing under GCC.
#if defined(__clang__)
#define TREESIM_NO_SANITIZE_INTEGER __attribute__((no_sanitize("integer")))
#else
#define TREESIM_NO_SANITIZE_INTEGER
#endif

namespace treesim {
namespace internal_safe_math {

inline std::atomic<uint64_t>& SaturationCounter() {
  static std::atomic<uint64_t> counter{0};
  return counter;
}

}  // namespace internal_safe_math

/// Observability hooks for the release-mode saturation path.
struct SafeMathStats {
  /// Number of checked operations that saturated since process start (or
  /// the last Reset). Always 0 in debug builds: overflow aborts there.
  static uint64_t saturations() {
    return internal_safe_math::SaturationCounter().load(
        std::memory_order_relaxed);
  }

  static void Reset() {
    internal_safe_math::SaturationCounter().store(0,
                                                  std::memory_order_relaxed);
  }
};

/// a + b, overflow-checked. Debug: fatal on overflow. Release: saturates
/// toward the overflow direction and bumps SafeMathStats.
template <typename T>
[[nodiscard]] inline T CheckedAdd(T a, T b) {
  static_assert(std::is_integral_v<T>, "CheckedAdd is integer-only");
  T out;
  if (!__builtin_add_overflow(a, b, &out)) return out;
#ifndef NDEBUG
  TREESIM_CHECK(false) << "CheckedAdd overflow: " << +a << " + " << +b;
#endif
  internal_safe_math::SaturationCounter().fetch_add(1,
                                                    std::memory_order_relaxed);
  return (b > T{0}) ? std::numeric_limits<T>::max()
                    : std::numeric_limits<T>::min();
}

/// a - b, overflow-checked (same policy as CheckedAdd).
template <typename T>
[[nodiscard]] inline T CheckedSub(T a, T b) {
  static_assert(std::is_integral_v<T>, "CheckedSub is integer-only");
  T out;
  if (!__builtin_sub_overflow(a, b, &out)) return out;
#ifndef NDEBUG
  TREESIM_CHECK(false) << "CheckedSub overflow: " << +a << " - " << +b;
#endif
  internal_safe_math::SaturationCounter().fetch_add(1,
                                                    std::memory_order_relaxed);
  return (b < T{0}) ? std::numeric_limits<T>::max()
                    : std::numeric_limits<T>::min();
}

/// a * b, overflow-checked (same policy as CheckedAdd).
template <typename T>
[[nodiscard]] inline T CheckedMul(T a, T b) {
  static_assert(std::is_integral_v<T>, "CheckedMul is integer-only");
  T out;
  if (!__builtin_mul_overflow(a, b, &out)) return out;
#ifndef NDEBUG
  TREESIM_CHECK(false) << "CheckedMul overflow: " << +a << " * " << +b;
#endif
  internal_safe_math::SaturationCounter().fetch_add(1,
                                                    std::memory_order_relaxed);
  const bool negative = (a < T{0}) != (b < T{0});
  return negative ? std::numeric_limits<T>::min()
                  : std::numeric_limits<T>::max();
}

/// Narrowing (or sign-changing) integer cast that proves the value fits.
/// Debug: fatal when `v` is not representable in `To`. Release: clamps to
/// To's range and bumps SafeMathStats.
template <typename To, typename From>
[[nodiscard]] inline To CheckedCast(From v) {
  static_assert(std::is_integral_v<To> && std::is_integral_v<From>,
                "CheckedCast is integer-only");
  if (std::in_range<To>(v)) return static_cast<To>(v);
#ifndef NDEBUG
  TREESIM_CHECK(false) << "CheckedCast out of range: " << +v;
#endif
  internal_safe_math::SaturationCounter().fetch_add(1,
                                                    std::memory_order_relaxed);
  if (std::cmp_less(v, std::numeric_limits<To>::min())) {
    return std::numeric_limits<To>::min();
  }
  return std::numeric_limits<To>::max();
}

/// floor(v) as the integer type To, defined for every double: values past
/// To's range, infinities included, clamp to its min or max, and NaN (which
/// has no integer value) becomes `if_nan`. A plain static_cast is undefined
/// behaviour in all three cases. Saturation is the intended result here,
/// so SafeMathStats is not bumped.
template <typename To>
[[nodiscard]] inline To SaturatingFloor(double v, To if_nan) {
  static_assert(std::is_integral_v<To>, "SaturatingFloor is integer-only");
  if (std::isnan(v)) return if_nan;
  const double f = std::floor(v);
  if (f >= static_cast<double>(std::numeric_limits<To>::max())) {
    return std::numeric_limits<To>::max();
  }
  if (f <= static_cast<double>(std::numeric_limits<To>::min())) {
    return std::numeric_limits<To>::min();
  }
  return static_cast<To>(f);
}

/// CheckedAdd for templated accumulation code that is instantiated with
/// both integer and floating-point cost types (the Zhang-Shasha kernel):
/// integers go through the checked path, floating point adds directly
/// (IEEE754 saturates to +-inf on its own, no UB involved).
template <typename T>
[[nodiscard]] inline T CheckedAddAny(T a, T b) {
  if constexpr (std::is_integral_v<T>) {
    return CheckedAdd(a, b);
  } else {
    return a + b;
  }
}

}  // namespace treesim

#endif  // TREESIM_UTIL_SAFE_MATH_H_
