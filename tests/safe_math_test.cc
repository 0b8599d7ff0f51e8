#include "util/safe_math.h"

#include <cstdint>
#include <limits>

#include "gtest/gtest.h"

namespace treesim {
namespace {

// Debug builds make overflow fatal; release builds saturate and count.
// Each overflow case asserts the matching behavior for the build at hand.
#ifndef NDEBUG
#define EXPECT_OVERFLOW(expr) EXPECT_DEATH((void)(expr), "overflow|out of range")
#else
#define EXPECT_OVERFLOW(expr) (void)(expr)
#endif

constexpr int32_t kMax32 = std::numeric_limits<int32_t>::max();
constexpr int32_t kMin32 = std::numeric_limits<int32_t>::min();
constexpr int64_t kMax64 = std::numeric_limits<int64_t>::max();
constexpr int64_t kMin64 = std::numeric_limits<int64_t>::min();

TEST(SafeMathTest, AddWithinRange) {
  EXPECT_EQ(CheckedAdd(2, 3), 5);
  EXPECT_EQ(CheckedAdd(-2, 3), 1);
  EXPECT_EQ(CheckedAdd(kMax32, 0), kMax32);
  EXPECT_EQ(CheckedAdd(kMax32 - 1, 1), kMax32);
  EXPECT_EQ(CheckedAdd(kMin32, kMax32), -1);
  EXPECT_EQ(CheckedAdd(kMax64 - 1, int64_t{1}), kMax64);
  EXPECT_EQ(CheckedAdd(uint64_t{1} << 63, uint64_t{0}), uint64_t{1} << 63);
}

TEST(SafeMathTest, SubWithinRange) {
  EXPECT_EQ(CheckedSub(3, 5), -2);
  EXPECT_EQ(CheckedSub(kMin32 + 1, 1), kMin32);
  EXPECT_EQ(CheckedSub(kMin64 + 1, int64_t{1}), kMin64);
}

TEST(SafeMathTest, MulWithinRange) {
  EXPECT_EQ(CheckedMul(6, 7), 42);
  EXPECT_EQ(CheckedMul(kMax32, 1), kMax32);
  EXPECT_EQ(CheckedMul(kMax32 / 2, 2), kMax32 - 1);
  EXPECT_EQ(CheckedMul<int64_t>(int64_t{1} << 31, int64_t{1} << 31),
            int64_t{1} << 62);
}

TEST(SafeMathTest, CastWithinRange) {
  EXPECT_EQ(CheckedCast<int>(int64_t{12345}), 12345);
  EXPECT_EQ(CheckedCast<int>(static_cast<int64_t>(kMax32)), kMax32);
  EXPECT_EQ(CheckedCast<int>(static_cast<int64_t>(kMin32)), kMin32);
  EXPECT_EQ(CheckedCast<uint32_t>(int64_t{0}), 0u);
  EXPECT_EQ(CheckedCast<int64_t>(uint64_t{42}), 42);
}

TEST(SafeMathTest, CheckedAddAnyDispatch) {
  // Integer instantiation goes through the checked path...
  EXPECT_EQ(CheckedAddAny(2, 3), 5);
  EXPECT_OVERFLOW(CheckedAddAny(kMax32, 1));
  // ...floating point adds directly (the Zhang-Shasha weighted kernel).
  EXPECT_DOUBLE_EQ(CheckedAddAny(0.5, 0.25), 0.75);
}

TEST(SafeMathOverflowTest, Int32Boundaries) {
  EXPECT_OVERFLOW(CheckedAdd(kMax32, 1));
  EXPECT_OVERFLOW(CheckedAdd(kMin32, -1));
  EXPECT_OVERFLOW(CheckedSub(kMin32, 1));
  EXPECT_OVERFLOW(CheckedSub(kMax32, -1));
  EXPECT_OVERFLOW(CheckedMul(kMax32 / 2 + 1, 2));
  EXPECT_OVERFLOW(CheckedMul(kMin32, -1));
}

TEST(SafeMathOverflowTest, Int64Boundaries) {
  EXPECT_OVERFLOW(CheckedAdd(kMax64, int64_t{1}));
  EXPECT_OVERFLOW(CheckedAdd(kMin64, int64_t{-1}));
  EXPECT_OVERFLOW(CheckedSub(kMin64, int64_t{1}));
  EXPECT_OVERFLOW(CheckedMul(kMax64 / 2 + 1, int64_t{2}));
  EXPECT_OVERFLOW(CheckedMul(int64_t{1} << 32, int64_t{1} << 32));
}

TEST(SafeMathOverflowTest, NarrowingCastOutOfRange) {
  EXPECT_OVERFLOW(CheckedCast<int>(static_cast<int64_t>(kMax32) + 1));
  EXPECT_OVERFLOW(CheckedCast<int>(static_cast<int64_t>(kMin32) - 1));
  EXPECT_OVERFLOW(CheckedCast<uint32_t>(-1));
  EXPECT_OVERFLOW(CheckedCast<int64_t>(std::numeric_limits<uint64_t>::max()));
}

TEST(SafeMathTest, SaturatingFloorIsDefinedForEveryDouble) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(SaturatingFloor<int>(2.75, -1), 2);
  EXPECT_EQ(SaturatingFloor<int>(-0.5, 0), -1);
  EXPECT_EQ(SaturatingFloor<int>(inf, -1), kMax32);
  EXPECT_EQ(SaturatingFloor<int>(3e9, -1), kMax32);
  EXPECT_EQ(SaturatingFloor<int>(-inf, 0), kMin32);
  EXPECT_EQ(SaturatingFloor<int>(nan, -1), -1);
  EXPECT_EQ(SaturatingFloor<int64_t>(inf, 0), kMax64);
  EXPECT_EQ(SaturatingFloor<int64_t>(-1e300, 0), kMin64);
  EXPECT_EQ(SaturatingFloor<int64_t>(nan, 7), 7);
  EXPECT_EQ(SaturatingFloor<int64_t>(24.0, 0), 24);
}

#ifdef NDEBUG
// Release-only: the saturation path must clamp toward the overflow
// direction and make every event observable via the counter.
TEST(SafeMathSaturationTest, SaturatesAndCounts) {
  SafeMathStats::Reset();
  EXPECT_EQ(SafeMathStats::saturations(), 0u);

  EXPECT_EQ(CheckedAdd(kMax32, 1), kMax32);
  EXPECT_EQ(CheckedAdd(kMin32, -1), kMin32);
  EXPECT_EQ(CheckedSub(kMin32, 1), kMin32);
  EXPECT_EQ(CheckedSub(kMax32, -1), kMax32);
  EXPECT_EQ(CheckedMul(kMax64 / 2 + 1, int64_t{2}), kMax64);
  // (kMax64 / 2 + 1) * -2 is exactly kMin64 (no overflow), so push one
  // further to exercise the negative saturation direction.
  EXPECT_EQ(CheckedMul(kMax64 / 2 + 2, int64_t{-2}), kMin64);
  EXPECT_EQ(CheckedCast<int>(static_cast<int64_t>(kMax32) + 1), kMax32);
  EXPECT_EQ(CheckedCast<int>(static_cast<int64_t>(kMin32) - 1), kMin32);
  EXPECT_EQ(SafeMathStats::saturations(), 8u);

  SafeMathStats::Reset();
  EXPECT_EQ(SafeMathStats::saturations(), 0u);
  // In-range operations never touch the counter.
  EXPECT_EQ(CheckedAdd(1, 2), 3);
  EXPECT_EQ(SafeMathStats::saturations(), 0u);
}
#endif

}  // namespace
}  // namespace treesim
