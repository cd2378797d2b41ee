// Quantized floating-point codec for CONGEST messages.
//
// The paper's packing values are reals of the form w * (1+eps)^k / (Delta+1)
// with integer w <= n^c; they fit in O(log n) bits. To make that concrete in
// the simulator, real-valued message fields are encoded as
// (sign 1 bit, exponent `exp_bits`, mantissa `mant_bits`) — a miniature
// custom float. Encoding is value-lossy (round to nearest) but the relative
// error is 2^-mant_bits, far below the (1+eps) granularity the algorithms
// care about; tests verify the round-trip error bound.
//
// Decoding runs once per delivered real field, so it is inline and builds
// the IEEE-754 double directly: the codec's value 1.mant * 2^(biased-bias)
// is exactly representable as a normal double whenever biased - bias + 1023
// lies in [1, 2046], which holds for every layout but the 11-bit-exponent
// one (its extreme exponents fall back to std::ldexp).
#pragma once

#include <bit>
#include <cstdint>

#include "common/check.hpp"

namespace arbods {

/// Codec for a fixed (exp_bits, mant_bits) layout.
class FixedPointCodec {
 public:
  /// exp_bits in [2, 11], mant_bits in [1, 52].
  constexpr FixedPointCodec(int exp_bits, int mant_bits)
      : exp_bits_(exp_bits), mant_bits_(mant_bits) {
    ARBODS_CHECK(exp_bits >= 2 && exp_bits <= 11);
    ARBODS_CHECK(mant_bits >= 1 && mant_bits <= 52);
    bias_ = (1 << (exp_bits - 1)) - 1;
  }

  /// Total encoded width: 1 + exp_bits + mant_bits.
  int bit_width() const { return 1 + exp_bits_ + mant_bits_; }

  /// Encodes v (round-to-nearest; saturates to the representable range;
  /// non-finite inputs are rejected with CheckError).
  std::uint64_t encode(double v) const;

  /// Decodes a value previously produced by encode().
  double decode(std::uint64_t bits) const {
    const std::uint64_t mant = bits & ((std::uint64_t{1} << mant_bits_) - 1);
    const std::uint64_t biased =
        (bits >> mant_bits_) & ((std::uint64_t{1} << exp_bits_) - 1);
    const std::uint64_t sign = (bits >> (mant_bits_ + exp_bits_)) & 1;
    if (biased == 0 && mant == 0) return sign ? -0.0 : 0.0;
    const std::int64_t exp = static_cast<std::int64_t>(biased) - bias_ + 1023;
    if (exp < 1 || exp > 2046) [[unlikely]]
      return decode_by_ldexp(sign, biased, mant);
    return std::bit_cast<double>((sign << 63) |
                                 (static_cast<std::uint64_t>(exp) << 52) |
                                 (mant << (52 - mant_bits_)));
  }

  /// Upper bound on relative round-trip error for normal values.
  double relative_error_bound() const;

 private:
  // sign * (1 + mant * 2^-mant_bits) * 2^(biased - bias) through std::ldexp:
  // the subnormal / overflowing exponents only an 11-bit layout can reach.
  double decode_by_ldexp(std::uint64_t sign, std::uint64_t biased,
                         std::uint64_t mant) const;

  int exp_bits_;
  int mant_bits_;
  int bias_ = 0;
};

/// The default codec used for packing values in messages: 6 exponent bits
/// (range ~2^-31 .. 2^32) and 25 mantissa bits => 32-bit fields. Constant-
/// initialized, so reading it costs no initialization guard.
inline const FixedPointCodec& default_value_codec() {
  static constexpr FixedPointCodec codec(6, 25);
  return codec;
}

}  // namespace arbods
