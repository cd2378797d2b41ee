#include "common/fixed_point.hpp"

#include <bit>
#include <cmath>

#include "common/check.hpp"

namespace arbods {

std::uint64_t FixedPointCodec::encode(double v) const {
  ARBODS_CHECK_MSG(std::isfinite(v), "cannot encode non-finite value " << v);
  // Work on the IEEE-754 fields: |v| = 1.frac * 2^(ieee_exp - 1023).
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  const std::uint64_t magnitude = bits & ~(std::uint64_t{1} << 63);
  // Both zeros encode as +0 (the sign of a nonzero value survives a flush).
  if (magnitude == 0) return 0;
  const std::uint64_t sign = (bits >> 63) << (exp_bits_ + mant_bits_);

  int biased = static_cast<int>(magnitude >> 52) - 1023 + bias_;
  // Underflow -> flush to zero. A subnormal double (ieee_exp 0) always
  // lands here, since bias_ <= 1023.
  if (biased < 1) return sign;
  // Round the 52-bit fraction to mant_bits_, half away from zero.
  const std::uint64_t frac = magnitude & ((std::uint64_t{1} << 52) - 1);
  const int drop = 52 - mant_bits_;
  std::uint64_t mant =
      drop == 0 ? frac : (frac + (std::uint64_t{1} << (drop - 1))) >> drop;
  if (mant >> mant_bits_) {  // rounding carried into the exponent
    mant = 0;
    ++biased;
  }
  const int max_exp = (1 << exp_bits_) - 1;
  if (biased > max_exp) {  // overflow -> saturate to the largest finite value
    biased = max_exp;
    mant = (std::uint64_t{1} << mant_bits_) - 1;
  }
  return sign | (static_cast<std::uint64_t>(biased) << mant_bits_) | mant;
}

double FixedPointCodec::decode_by_ldexp(std::uint64_t sign,
                                        std::uint64_t biased,
                                        std::uint64_t mant) const {
  double m = 1.0 + static_cast<double>(mant) * std::ldexp(1.0, -mant_bits_);
  double a = std::ldexp(m, static_cast<int>(biased) - bias_);
  return sign ? -a : a;
}

double FixedPointCodec::relative_error_bound() const {
  return std::ldexp(1.0, -mant_bits_);
}

}  // namespace arbods
