// Unit tests for src/common: RNG, math helpers, fixed-point codec, tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

#include "common/check.hpp"
#include "common/fixed_point.hpp"
#include "common/math_util.hpp"
#include "common/random.hpp"
#include "common/table.hpp"

namespace arbods {
namespace {

// ----------------------------------------------------------------- checking

TEST(Check, PassingCheckDoesNothing) { ARBODS_CHECK(1 + 1 == 2); }

TEST(Check, FailingCheckThrowsCheckError) {
  EXPECT_THROW(ARBODS_CHECK(1 + 1 == 3), CheckError);
}

TEST(Check, MessageIsIncluded) {
  try {
    ARBODS_CHECK_MSG(false, "ctx " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("ctx 42"), std::string::npos);
  }
}

// ---------------------------------------------------------------------- rng

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(5);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= (v == -3);
    hit_hi |= (v == 3);
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.next_bernoulli(0.0));
    EXPECT_TRUE(rng.next_bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequencyRoughlyMatches) {
  Rng rng(17);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.next_bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, SplitIsDeterministicAndIndependentOfState) {
  Rng a(99);
  Rng s1 = a.split(5);
  a.next_u64();  // advancing the parent must not change future splits
  Rng s2 = a.split(5);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(s1.next_u64(), s2.next_u64());
}

TEST(Rng, SplitStreamsDiffer) {
  Rng a(99);
  Rng s1 = a.split(1), s2 = a.split(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (s1.next_u64() == s2.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(21);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Rng, SampleWithoutReplacementBasics) {
  Rng rng(33);
  auto s = rng.sample_without_replacement(100, 10);
  EXPECT_EQ(s.size(), 10u);
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  EXPECT_TRUE(std::adjacent_find(s.begin(), s.end()) == s.end());
  for (auto x : s) EXPECT_LT(x, 100u);
}

TEST(Rng, SampleFullRange) {
  Rng rng(34);
  auto s = rng.sample_without_replacement(8, 8);
  std::vector<std::uint64_t> want{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(s, want);
}

TEST(Rng, SampleDenseBranch) {
  Rng rng(35);
  auto s = rng.sample_without_replacement(10, 7);  // k > n/2 path
  EXPECT_EQ(s.size(), 7u);
  EXPECT_TRUE(std::adjacent_find(s.begin(), s.end()) == s.end());
}

// --------------------------------------------------------------------- math

TEST(MathUtil, CeilLog2KnownValues) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(4), 2);
  EXPECT_EQ(ceil_log2(5), 3);
  EXPECT_EQ(ceil_log2(1024), 10);
  EXPECT_EQ(ceil_log2(1025), 11);
}

TEST(MathUtil, FloorLog2KnownValues) {
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(2), 1);
  EXPECT_EQ(floor_log2(3), 1);
  EXPECT_EQ(floor_log2(1023), 9);
}

TEST(MathUtil, BitWidth) {
  EXPECT_EQ(bit_width_for(0), 1);
  EXPECT_EQ(bit_width_for(1), 1);
  EXPECT_EQ(bit_width_for(2), 2);
  EXPECT_EQ(bit_width_for(255), 8);
  EXPECT_EQ(bit_width_for(256), 9);
}

TEST(MathUtil, CeilLogBase) {
  EXPECT_EQ(ceil_log_base(2.0, 1.0), 0);
  EXPECT_EQ(ceil_log_base(2.0, 2.0), 1);
  EXPECT_EQ(ceil_log_base(2.0, 8.0), 3);
  EXPECT_EQ(ceil_log_base(2.0, 9.0), 4);
  EXPECT_EQ(ceil_log_base(1.5, 1.5), 1);
  // pow(1.1, 10) ~ 2.5937...
  EXPECT_EQ(ceil_log_base(1.1, 2.5937424601000002), 10);
}

TEST(MathUtil, IpowSaturating) {
  EXPECT_EQ(ipow_saturating(2, 10), 1024);
  EXPECT_EQ(ipow_saturating(10, 0), 1);
  EXPECT_EQ(ipow_saturating(0, 5), 0);
  EXPECT_EQ(ipow_saturating(2, 63), std::numeric_limits<std::int64_t>::max());
}

TEST(MathUtil, ApproxAndSlack) {
  EXPECT_TRUE(approx_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(approx_equal(1.0, 1.001));
  EXPECT_TRUE(leq_with_slack(1.0 + 1e-12, 1.0));
  EXPECT_FALSE(leq_with_slack(1.01, 1.0));
}

// -------------------------------------------------------------- fixed point

TEST(FixedPoint, ZeroRoundTrips) {
  const auto& c = default_value_codec();
  EXPECT_EQ(c.decode(c.encode(0.0)), 0.0);
}

TEST(FixedPoint, BitWidthMatchesLayout) {
  FixedPointCodec c(6, 25);
  EXPECT_EQ(c.bit_width(), 32);
}

TEST(FixedPoint, RelativeErrorBoundHolds) {
  const auto& c = default_value_codec();
  Rng rng(1234);
  for (int i = 0; i < 5000; ++i) {
    // Values spanning the packing-value range used by the algorithms.
    double mag = std::pow(10.0, rng.next_int(-6, 6));
    double v = (rng.next_double() + 0.01) * mag;
    double back = c.decode(c.encode(v));
    EXPECT_LE(std::fabs(back - v), c.relative_error_bound() * v * 1.0001)
        << "v=" << v;
  }
}

TEST(FixedPoint, NegativeValues) {
  const auto& c = default_value_codec();
  double v = -3.25;
  EXPECT_NEAR(c.decode(c.encode(v)), v, 1e-6);
}

TEST(FixedPoint, SaturatesInsteadOfOverflowing) {
  FixedPointCodec c(4, 4);  // tiny range
  double big = 1e30;
  double back = c.decode(c.encode(big));
  EXPECT_GT(back, 0.0);
  EXPECT_TRUE(std::isfinite(back));
}

TEST(FixedPoint, FlushesUnderflowToZero) {
  FixedPointCodec c(4, 4);
  EXPECT_EQ(c.decode(c.encode(1e-30)), 0.0);
}

TEST(FixedPoint, RejectsNonFinite) {
  const auto& c = default_value_codec();
  EXPECT_THROW(c.encode(std::numeric_limits<double>::infinity()), CheckError);
  EXPECT_THROW(c.encode(std::numeric_limits<double>::quiet_NaN()), CheckError);
}

TEST(FixedPoint, MonotoneOnSamples) {
  const auto& c = default_value_codec();
  double prev = 0.0;
  for (double v = 0.001; v < 100.0; v *= 1.37) {
    double q = c.decode(c.encode(v));
    EXPECT_GE(q, prev);
    prev = q;
  }
}

// Reference decode through std::ldexp; decode() builds the IEEE-754 bits
// directly and must match it bit for bit on every layout.
double ldexp_decode(std::uint64_t bits, int exp_bits, int mant_bits) {
  const std::uint64_t mant = bits & ((std::uint64_t{1} << mant_bits) - 1);
  const std::uint64_t biased =
      (bits >> mant_bits) & ((std::uint64_t{1} << exp_bits) - 1);
  const std::uint64_t sign = (bits >> (mant_bits + exp_bits)) & 1;
  if (biased == 0 && mant == 0) return sign ? -0.0 : 0.0;
  const int bias = (1 << (exp_bits - 1)) - 1;
  const double m =
      1.0 + static_cast<double>(mant) * std::ldexp(1.0, -mant_bits);
  const double a = std::ldexp(m, static_cast<int>(biased) - bias);
  return sign ? -a : a;
}

TEST(FixedPoint, DecodeMatchesLdexpReferenceOnEveryLayout) {
  Rng rng(4242);
  int checked = 0;
  for (int eb = 2; eb <= 11; ++eb) {
    for (int mb = 1; mb <= 52; ++mb) {
      const FixedPointCodec c(eb, mb);
      const std::uint64_t sign = std::uint64_t{1} << (eb + mb);
      const std::uint64_t all_ones = (std::uint64_t{1} << mb) - 1;
      const std::uint64_t max_biased = (std::uint64_t{1} << eb) - 1;
      std::vector<std::uint64_t> codes;
      for (const std::uint64_t biased : {std::uint64_t{0}, std::uint64_t{1},
                                         max_biased - 1, max_biased})
        for (const std::uint64_t mant : {std::uint64_t{0}, std::uint64_t{1},
                                         all_ones})
          codes.push_back((biased << mb) | mant);
      const std::uint64_t width_mask =
          eb + mb + 1 >= 64 ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << (eb + mb + 1)) - 1;
      for (int i = 0; i < 16; ++i) codes.push_back(rng.next_u64() & width_mask);
      for (const double v : {1.0, -0.75, 3.5e-3, 1234.5})
        codes.push_back(c.encode(v));
      for (const std::uint64_t code : codes) {
        for (const std::uint64_t bits : {code, code ^ sign}) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(c.decode(bits)),
                    std::bit_cast<std::uint64_t>(ldexp_decode(bits, eb, mb)))
              << "exp_bits=" << eb << " mant_bits=" << mb
              << " bits=" << bits;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 10 * 52 * 2 * (12 + 16 + 4));
}

// Reference encode through std::frexp / std::llround / std::ldexp; encode()
// reads the IEEE-754 fields directly and must match it bit for bit on
// every layout.
std::uint64_t frexp_encode(double v, int exp_bits, int mant_bits) {
  const int bias = (1 << (exp_bits - 1)) - 1;
  const std::uint64_t sign = v < 0.0 ? 1 : 0;
  const double a = std::fabs(v);
  if (a == 0.0) return sign << (exp_bits + mant_bits);
  int e = 0;
  const double m = std::frexp(a, &e) * 2.0;  // a = m * 2^(e-1), m in [1, 2)
  int biased = (e - 1) + bias;
  const int max_exp = (1 << exp_bits) - 1;
  if (biased < 1) return sign << (exp_bits + mant_bits);
  std::uint64_t mant = static_cast<std::uint64_t>(
      std::llround((m - 1.0) * std::ldexp(1.0, mant_bits)));
  if (mant >= (std::uint64_t{1} << mant_bits)) {
    mant = 0;
    ++biased;
  }
  if (biased > max_exp) {
    biased = max_exp;
    mant = (std::uint64_t{1} << mant_bits) - 1;
  }
  return (sign << (exp_bits + mant_bits)) |
         (static_cast<std::uint64_t>(biased) << mant_bits) | mant;
}

TEST(FixedPointCodec, EncodeMatchesFrexpReference) {
  Rng rng(9191);
  constexpr std::uint64_t kFrac = (std::uint64_t{1} << 52) - 1;
  const auto from_fields = [](std::uint64_t ieee_exp, std::uint64_t frac) {
    return std::bit_cast<double>((ieee_exp << 52) | (frac & kFrac));
  };
  std::int64_t checked = 0;
  for (int eb = 2; eb <= 11; ++eb) {
    for (int mb = 1; mb <= 52; ++mb) {
      const FixedPointCodec c(eb, mb);
      const int bias = (1 << (eb - 1)) - 1;
      const int drop = 52 - mb;
      // IEEE exponents of the layout's smallest and largest normal value.
      const std::int64_t lo = 1023 - bias + 1;
      const std::int64_t hi = 1023 + bias + 1;
      std::vector<std::int64_t> exps = {1, 1023, 2046};
      for (std::int64_t e = lo - 2; e <= lo + 1; ++e) exps.push_back(e);
      for (std::int64_t e = hi - 2; e <= hi + 1; ++e) exps.push_back(e);
      std::vector<double> values = {0.0, 1.0, 1.5,
                                    std::numeric_limits<double>::min(),
                                    std::numeric_limits<double>::max(),
                                    std::numeric_limits<double>::denorm_min(),
                                    from_fields(0, kFrac)};
      for (const std::int64_t exp : exps) {
        if (exp < 1 || exp > 2046) continue;
        const std::uint64_t e = static_cast<std::uint64_t>(exp);
        // Ties at the rounding bit, a carry out of the mantissa (all kept
        // bits set, then a tie or more), and the fraction's extremes.
        const std::uint64_t low = (std::uint64_t{1} << drop) - 1;
        const std::uint64_t keep_ones = kFrac & ~low;
        const std::uint64_t half = low - (low >> 1);  // 0 when drop == 0
        const std::uint64_t below_half = half == 0 ? 0 : half - 1;
        for (const std::uint64_t frac :
             {std::uint64_t{0}, kFrac, half, keep_ones, keep_ones | half,
              keep_ones | below_half, (rng.next_u64() & keep_ones) | half,
              (rng.next_u64() & keep_ones) | below_half, rng.next_u64()})
          values.push_back(from_fields(e, frac));
      }
      // Subnormals, random finite bit patterns, and random values across
      // the layout's range.
      for (int i = 0; i < 8; ++i) {
        values.push_back(from_fields(0, rng.next_u64()));
        std::uint64_t bits = rng.next_u64();
        if (((bits >> 52) & 0x7ff) == 0x7ff) bits ^= std::uint64_t{1} << 52;
        values.push_back(
            std::bit_cast<double>(bits & ~(std::uint64_t{1} << 63)));
        const std::int64_t span = hi - lo + 5;
        const std::int64_t e = std::clamp<std::int64_t>(
            lo - 2 + rng.next_int(0, span - 1), 1, 2046);
        values.push_back(
            from_fields(static_cast<std::uint64_t>(e), rng.next_u64()));
      }
      for (const double a : values) {
        for (const double v : {a, -a}) {
          ASSERT_EQ(c.encode(v), frexp_encode(v, eb, mb))
              << "exp_bits=" << eb << " mant_bits=" << mb << " v=" << v
              << " bits=" << std::bit_cast<std::uint64_t>(v);
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 10 * 52 * 2 * 100);
}

// -------------------------------------------------------------------- table

TEST(Table, RendersAlignedMarkdown) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::string md = t.to_markdown();
  EXPECT_NE(md.find("| name   | value |"), std::string::npos);
  EXPECT_NE(md.find("| longer | 22    |"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt_int(-7), "-7");
}

}  // namespace
}  // namespace arbods
