#pragma once
// Fixed-point number format used by the systolic-array PE model.
//
// The paper injects stuck-at faults into the *output bits of the PE
// accumulator*, so the accumulator must be modeled at the bit level. A
// FixedFormat describes a signed two's-complement Q(total-frac-1).frac
// value stored in the low `total_bits` of an int32_t, sign-extended to the
// full word. The default accelerator format is Q8.8 (16-bit); Q16.16
// (32-bit) is supported and tested.

#include <cstdint>
#include <string>

namespace falvolt::fx {

/// Signed two's-complement fixed-point format.
///
/// Raw values are canonical: stored sign-extended in int32_t, with the
/// numeric range [min_raw(), max_raw()]. All arithmetic saturates — a
/// hardware accumulator clamps rather than wrapping, and saturation keeps
/// fault-free quantized inference close to float inference.
class FixedFormat {
 public:
  /// @param total_bits word width, in [2, 32]
  /// @param frac_bits  fractional bits, in [0, total_bits - 1]
  FixedFormat(int total_bits, int frac_bits);

  int total_bits() const { return total_bits_; }
  int frac_bits() const { return frac_bits_; }
  int int_bits() const { return total_bits_ - frac_bits_ - 1; }

  /// Largest representable raw value: 2^(total-1) - 1.
  std::int32_t max_raw() const { return max_raw_; }
  /// Smallest representable raw value: -2^(total-1).
  std::int32_t min_raw() const { return min_raw_; }

  /// Value of one least-significant bit.
  double resolution() const { return 1.0 / static_cast<double>(scale_); }
  /// Largest representable real value.
  double max_value() const { return dequantize(max_raw_); }
  /// Smallest (most negative) representable real value.
  double min_value() const { return dequantize(min_raw_); }

  /// Real -> raw with round-to-nearest and saturation.
  std::int32_t quantize(double v) const;

  /// Raw -> real.
  double dequantize(std::int32_t raw) const {
    return static_cast<double>(raw) / static_cast<double>(scale_);
  }

  /// Clamp a wide intermediate into the representable raw range.
  std::int32_t saturate(std::int64_t wide) const;

  /// Saturating raw addition (the PE accumulate step).
  std::int32_t add(std::int32_t a, std::int32_t b) const {
    return saturate(static_cast<std::int64_t>(a) +
                    static_cast<std::int64_t>(b));
  }

  /// Saturating raw subtraction (signed-weight subtract path in the PE).
  std::int32_t sub(std::int32_t a, std::int32_t b) const {
    return saturate(static_cast<std::int64_t>(a) -
                    static_cast<std::int64_t>(b));
  }

  /// Saturating fixed-point multiply with round-to-nearest.
  /// Used only for the real-valued inputs of the spike-encoder conv
  /// (direct coding: it sees pixel intensities, not spikes); binary-spike
  /// layers never multiply.
  std::int32_t mul(std::int32_t a, std::int32_t b) const;

  /// Overflow-headroom proof used by the faulty-GEMM fast path: a chain
  /// of saturating adds starting from 0 equals plain integer addition
  /// whenever the sum of absolute contributions cannot leave the raw
  /// range — every intermediate partial sum is then bounded by `abs_sum`
  /// in magnitude, so no step saturates. (For a nonzero starting value,
  /// pass |start| + abs_sum.)
  bool saturation_free(std::int64_t abs_sum) const {
    return abs_sum <= static_cast<std::int64_t>(max_raw_);
  }

  /// Sign-extend the low `total_bits` of `bits` into a canonical raw value.
  std::int32_t sign_extend(std::uint32_t bits) const;

  /// Truncate a raw value to its low `total_bits` bit pattern.
  std::uint32_t to_bits(std::int32_t raw) const {
    return static_cast<std::uint32_t>(raw) & word_mask_;
  }

  /// e.g. "Q8.8 (16-bit)".
  std::string to_string() const;

  bool operator==(const FixedFormat& o) const {
    return total_bits_ == o.total_bits_ && frac_bits_ == o.frac_bits_;
  }

  /// Accelerator default: Q8.8, 16-bit word.
  static FixedFormat q8_8() { return FixedFormat(16, 8); }
  /// Wide mode: Q16.16, 32-bit word (approx. float).
  static FixedFormat q16_16() { return FixedFormat(32, 16); }

 private:
  int total_bits_;
  int frac_bits_;
  std::int64_t scale_;  // 2^frac_bits
  std::int32_t max_raw_;
  std::int32_t min_raw_;
  std::uint32_t word_mask_;
  std::uint32_t sign_bit_;
};

}  // namespace falvolt::fx
