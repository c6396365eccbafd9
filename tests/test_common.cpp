// Unit tests for the common substrate: bitsets, fixed vectors, RNG,
// statistics, string helpers, saturating counters.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>

#include "common/bitset.hpp"
#include "common/fixed_vector.hpp"
#include "common/rng.hpp"
#include "common/sat_counter.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"

namespace steersim {
namespace {

TEST(SmallBitset, SetResetCount) {
  SmallBitset<7> bits;
  EXPECT_TRUE(bits.none());
  bits.set(0);
  bits.set(6);
  EXPECT_EQ(bits.count(), 2u);
  EXPECT_TRUE(bits.test(0));
  EXPECT_FALSE(bits.test(3));
  bits.reset(0);
  EXPECT_EQ(bits.count(), 1u);
  EXPECT_EQ(bits.lowest(), 6u);
}

TEST(SmallBitset, BitwiseOperators) {
  SmallBitset<8> a(0b10110000);
  SmallBitset<8> b(0b10010001);
  EXPECT_EQ((a & b).raw(), 0b10010000u);
  EXPECT_EQ((a | b).raw(), 0b10110001u);
  EXPECT_EQ((a ^ b).raw(), 0b00100001u);
  EXPECT_EQ((~a).raw(), 0b01001111u);
}

TEST(SmallBitset, ComplementStaysInRange) {
  SmallBitset<5> empty;
  EXPECT_EQ((~empty).raw(), 0b11111u);
  EXPECT_EQ((~empty).count(), 5u);
}

TEST(SmallBitset, FullWidth64) {
  SmallBitset<64> bits;
  bits.set(63);
  EXPECT_EQ(bits.raw(), 1ull << 63);
  EXPECT_EQ((~bits).count(), 63u);
}

TEST(FixedVector, PushPopFrontErase) {
  FixedVector<int, 4> v;
  EXPECT_TRUE(v.empty());
  v.push_back(1);
  v.push_back(2);
  v.push_back(3);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.front(), 1);
  EXPECT_EQ(v.back(), 3);
  v.erase_front(2);
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 3);
  v.pop_back();
  EXPECT_TRUE(v.empty());
}

TEST(FixedVector, FullDetection) {
  FixedVector<int, 2> v;
  v.push_back(1);
  EXPECT_FALSE(v.full());
  v.push_back(2);
  EXPECT_TRUE(v.full());
}

TEST(FixedVector, Equality) {
  FixedVector<int, 4> a;
  FixedVector<int, 4> b;
  a.push_back(1);
  b.push_back(1);
  EXPECT_EQ(a, b);
  b.push_back(2);
  EXPECT_FALSE(a == b);
}

TEST(FixedVector, CopiesAndAssignsOnlyTheLivePrefix) {
  FixedVector<int, 8> a;
  for (int i = 1; i <= 5; ++i) {
    a.push_back(i);
  }
  a.pop_back();
  a.pop_back();  // live prefix {1, 2, 3}; slots 3 and 4 hold stale values

  const FixedVector<int, 8> copy(a);
  ASSERT_EQ(copy.size(), 3u);
  EXPECT_EQ(copy[0], 1);
  EXPECT_EQ(copy[2], 3);
  EXPECT_EQ(copy, a);

  // Assigning a shorter vector over a longer one truncates it.
  FixedVector<int, 8> longer;
  for (int i = 0; i < 7; ++i) {
    longer.push_back(90 + i);
  }
  longer = a;
  ASSERT_EQ(longer.size(), 3u);
  EXPECT_EQ(longer[1], 2);
  EXPECT_EQ(longer, a);

  // Growing after an assignment writes fresh slots; a longer vector over a
  // shorter one extends it.
  longer.push_back(40);
  EXPECT_FALSE(longer == a);
  EXPECT_EQ(longer.back(), 40);
  a = longer;
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a[3], 40);
  EXPECT_EQ(a, longer);

  // Equal live prefixes compare equal whatever lies past size().
  FixedVector<int, 8> fresh;
  for (int i : {1, 2, 3, 40}) {
    fresh.push_back(i);
  }
  EXPECT_EQ(fresh, a);
  a = a;  // self-assignment keeps the contents
  EXPECT_EQ(fresh, a);

  // Non-trivial elements copy and move element-wise.
  FixedVector<std::string, 4> words;
  words.push_back("issue");
  words.push_back("steer");
  FixedVector<std::string, 4> copied(words);
  EXPECT_EQ(copied, words);
  FixedVector<std::string, 4> moved(std::move(copied));
  ASSERT_EQ(moved.size(), 2u);
  EXPECT_EQ(moved[1], "steer");
  FixedVector<std::string, 4> target;
  target.push_back("stale");
  target.push_back("stale");
  target.push_back("stale");
  target = std::move(moved);
  ASSERT_EQ(target.size(), 2u);
  EXPECT_EQ(target, words);
}

TEST(Xoshiro, DeterministicPerSeed) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  Xoshiro256 c(43);
  bool any_differs = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    any_differs = any_differs || (va != c.next());
  }
  EXPECT_TRUE(any_differs);
}

TEST(Xoshiro, NextBelowInRangeAndCoversValues) {
  Xoshiro256 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Xoshiro, NextDoubleInUnitInterval) {
  Xoshiro256 rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RunningStat, Moments) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
}

TEST(RunningStat, EmptyIsZero) {
  const RunningStat s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStat, EmptyMinMaxAreNaN) {
  // min()/max() of no samples used to report the +/-inf priming sentinels
  // as if they were data; NaN is the honest answer (rendered "-").
  const RunningStat s;
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  RunningStat one;
  one.add(3.0);
  EXPECT_DOUBLE_EQ(one.min(), 3.0);
  EXPECT_DOUBLE_EQ(one.max(), 3.0);
}

TEST(Histogram, BucketsAndQuantiles) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) {
    h.add(static_cast<double>(i % 10) + 0.5);
  }
  EXPECT_EQ(h.total(), 100u);
  for (std::size_t b = 0; b < 10; ++b) {
    EXPECT_EQ(h.bucket_count(b), 10u);
  }
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_NEAR(h.quantile(0.5), 5.0, 1.0);
}

TEST(Histogram, OutOfRangeClampsToEndBuckets) {
  Histogram h(0.0, 1.0, 2);
  h.add(-5.0);
  h.add(5.0);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
}

TEST(Histogram, InfinitiesClampAndNaNIsDroppedCounted) {
  // Infinities used to flow into a float->size_t cast (UB); they now clamp
  // into the end buckets like any out-of-range sample, and NaN (which has
  // no defensible bucket) is dropped but counted.
  Histogram h(0.0, 10.0, 4);
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.nan_samples(), 2u);
}

TEST(Histogram, TopQuantileReturnsTopOccupiedBucket) {
  // quantile(1.0) used to fall off the distribution and return hi_ even
  // when the top buckets were empty.
  Histogram h(0.0, 100.0, 10);
  h.add(5.0);
  h.add(15.0);
  h.add(25.0);
  // Top occupied bucket is [20,30): its lower edge is 20.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  const Histogram empty(0.0, 100.0, 10);
  EXPECT_DOUBLE_EQ(empty.quantile(1.0), 0.0);
}

TEST(SatCounter, TwoBitHysteresis) {
  SatCounter c(2, 1);  // weakly not-taken
  EXPECT_FALSE(c.predict_taken());
  c.update(true);
  EXPECT_TRUE(c.predict_taken());
  c.update(true);
  EXPECT_EQ(c.value(), 3);
  c.update(true);  // saturates
  EXPECT_EQ(c.value(), 3);
  c.update(false);
  EXPECT_TRUE(c.predict_taken());  // hysteresis: one miss keeps prediction
  c.update(false);
  EXPECT_FALSE(c.predict_taken());
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
  EXPECT_EQ(format_double(2.0, 0), "2");
  // NaN means "no data" everywhere it can reach a report; render as "-".
  EXPECT_EQ(format_double(std::numeric_limits<double>::quiet_NaN(), 3), "-");
}

TEST(Strings, ParsePositiveU64AcceptsOnlyPureDecimal) {
  EXPECT_EQ(parse_positive_u64("1"), 1u);
  EXPECT_EQ(parse_positive_u64("200000"), 200000u);
  EXPECT_EQ(parse_positive_u64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());

  // Everything else is rejected — most importantly "-1", which strtoull
  // would happily wrap to 2^64-1 and thereby disable a cycle budget.
  EXPECT_FALSE(parse_positive_u64("").has_value());
  EXPECT_FALSE(parse_positive_u64("0").has_value());
  EXPECT_FALSE(parse_positive_u64("-1").has_value());
  EXPECT_FALSE(parse_positive_u64("+1").has_value());
  EXPECT_FALSE(parse_positive_u64("12x").has_value());
  EXPECT_FALSE(parse_positive_u64("0x10").has_value());
  EXPECT_FALSE(parse_positive_u64(" 1").has_value());
  EXPECT_FALSE(parse_positive_u64("1 ").has_value());
  EXPECT_FALSE(parse_positive_u64("1e6").has_value());
  EXPECT_FALSE(parse_positive_u64("18446744073709551616").has_value());
  EXPECT_FALSE(parse_positive_u64("99999999999999999999999").has_value());
}

TEST(Strings, PadBothDirections) {
  EXPECT_EQ(pad("ab", 5), "   ab");
  EXPECT_EQ(pad("ab", -5), "ab   ");
  EXPECT_EQ(pad("abcdef", 3), "abcdef");
}

TEST(Strings, SplitAndTrim) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(trim("  hi \t"), "hi");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, FormatBits) {
  EXPECT_EQ(format_bits(0b101, 3), "101");
  EXPECT_EQ(format_bits(1, 5), "00001");
}

}  // namespace
}  // namespace steersim
