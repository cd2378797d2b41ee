#include "common/fixed_point.hpp"

#include <cmath>

#include "common/check.hpp"

namespace arbods {

std::uint64_t FixedPointCodec::encode(double v) const {
  ARBODS_CHECK_MSG(std::isfinite(v), "cannot encode non-finite value " << v);
  std::uint64_t sign = v < 0.0 ? 1 : 0;
  double a = std::fabs(v);
  if (a == 0.0) return sign << (exp_bits_ + mant_bits_);

  int e = 0;
  double frac = std::frexp(a, &e);  // a = frac * 2^e, frac in [0.5, 1)
  // Re-normalize to mantissa in [1, 2): a = m * 2^(e-1).
  double m = frac * 2.0;
  int biased = (e - 1) + bias_;
  const int max_exp = (1 << exp_bits_) - 1;
  if (biased < 1) {  // underflow -> flush to zero
    return sign << (exp_bits_ + mant_bits_);
  }
  std::uint64_t mant =
      static_cast<std::uint64_t>(std::llround((m - 1.0) * std::ldexp(1.0, mant_bits_)));
  if (mant >= (std::uint64_t{1} << mant_bits_)) {  // rounding carried into exponent
    mant = 0;
    ++biased;
  }
  if (biased > max_exp) {  // overflow -> saturate to the largest finite value
    biased = max_exp;
    mant = (std::uint64_t{1} << mant_bits_) - 1;
  }
  return (sign << (exp_bits_ + mant_bits_)) |
         (static_cast<std::uint64_t>(biased) << mant_bits_) | mant;
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
