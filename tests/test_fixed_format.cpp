#include "fixed/fixed_format.h"

#include <gtest/gtest.h>

#include <cmath>

namespace falvolt::fx {
namespace {

TEST(FixedFormat, Q88Basics) {
  const FixedFormat f = FixedFormat::q8_8();
  EXPECT_EQ(f.total_bits(), 16);
  EXPECT_EQ(f.frac_bits(), 8);
  EXPECT_EQ(f.int_bits(), 7);
  EXPECT_EQ(f.max_raw(), 32767);
  EXPECT_EQ(f.min_raw(), -32768);
  EXPECT_DOUBLE_EQ(f.resolution(), 1.0 / 256.0);
}

TEST(FixedFormat, RejectsBadWidths) {
  EXPECT_THROW(FixedFormat(1, 0), std::invalid_argument);
  EXPECT_THROW(FixedFormat(33, 0), std::invalid_argument);
  EXPECT_THROW(FixedFormat(8, 8), std::invalid_argument);
  EXPECT_THROW(FixedFormat(8, -1), std::invalid_argument);
}

TEST(FixedFormat, QuantizeRoundTripWithinHalfLsb) {
  const FixedFormat f = FixedFormat::q8_8();
  for (double v = -10.0; v <= 10.0; v += 0.013) {
    const double back = f.dequantize(f.quantize(v));
    EXPECT_NEAR(back, v, f.resolution() / 2 + 1e-12) << v;
  }
}

TEST(FixedFormat, QuantizeSaturates) {
  const FixedFormat f = FixedFormat::q8_8();
  EXPECT_EQ(f.quantize(1e9), f.max_raw());
  EXPECT_EQ(f.quantize(-1e9), f.min_raw());
  EXPECT_EQ(f.quantize(200.0), f.max_raw());  // > 127.996
}

TEST(FixedFormat, QuantizeNanIsZero) {
  const FixedFormat f = FixedFormat::q8_8();
  EXPECT_EQ(f.quantize(std::nan("")), 0);
}

TEST(FixedFormat, AddSaturatesBothWays) {
  const FixedFormat f = FixedFormat::q8_8();
  EXPECT_EQ(f.add(f.max_raw(), 1), f.max_raw());
  EXPECT_EQ(f.add(f.min_raw(), -1), f.min_raw());
  EXPECT_EQ(f.add(100, 28), 128);
}

TEST(FixedFormat, SubSaturates) {
  const FixedFormat f = FixedFormat::q8_8();
  EXPECT_EQ(f.sub(f.min_raw(), 1), f.min_raw());
  EXPECT_EQ(f.sub(f.max_raw(), -1), f.max_raw());
  EXPECT_EQ(f.sub(100, 28), 72);
}

TEST(FixedFormat, MulMatchesRealArithmetic) {
  const FixedFormat f = FixedFormat::q8_8();
  const std::int32_t a = f.quantize(1.5);
  const std::int32_t b = f.quantize(-2.25);
  EXPECT_NEAR(f.dequantize(f.mul(a, b)), -3.375, 2 * f.resolution());
}

TEST(FixedFormat, SignExtendNegative) {
  const FixedFormat f = FixedFormat::q8_8();
  // 0x8000 is the most negative 16-bit value.
  EXPECT_EQ(f.sign_extend(0x8000u), -32768);
  EXPECT_EQ(f.sign_extend(0xffffu), -1);
  EXPECT_EQ(f.sign_extend(0x7fffu), 32767);
}

TEST(FixedFormat, SignExtendRoundTripsToBits) {
  const FixedFormat f = FixedFormat::q8_8();
  for (std::int32_t raw : {-32768, -1, 0, 1, 127, 32767}) {
    EXPECT_EQ(f.sign_extend(f.to_bits(raw)), raw);
  }
}

TEST(FixedFormat, ThirtyTwoBitFormat) {
  const FixedFormat f = FixedFormat::q16_16();
  EXPECT_EQ(f.total_bits(), 32);
  EXPECT_EQ(f.max_raw(), 0x7fffffff);
  EXPECT_EQ(f.sign_extend(0xffffffffu), -1);
  EXPECT_NEAR(f.dequantize(f.quantize(1234.5678)), 1234.5678,
              f.resolution());
}

TEST(FixedFormat, ToStringNamesFormat) {
  EXPECT_EQ(FixedFormat::q8_8().to_string(), "Q7.8 (16-bit)");
}

// Parameterized sweep: round-trip property holds for every format width.
class FormatSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(FormatSweep, RoundTripAndSaturationInvariants) {
  const auto [total, frac] = GetParam();
  const FixedFormat f(total, frac);
  // max/min raw are representable and dequantize monotonically.
  EXPECT_GT(f.max_value(), f.min_value());
  EXPECT_EQ(f.saturate(static_cast<std::int64_t>(f.max_raw()) + 5),
            f.max_raw());
  EXPECT_EQ(f.saturate(static_cast<std::int64_t>(f.min_raw()) - 5),
            f.min_raw());
  // Round trip of representable values is exact.
  for (std::int32_t raw : {f.min_raw(), -1, 0, 1, f.max_raw()}) {
    EXPECT_EQ(f.quantize(f.dequantize(raw)), raw);
    EXPECT_EQ(f.sign_extend(f.to_bits(raw)), raw);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, FormatSweep,
    ::testing::Values(std::pair{8, 4}, std::pair{12, 6}, std::pair{16, 8},
                      std::pair{16, 12}, std::pair{24, 12},
                      std::pair{32, 16}, std::pair{32, 0},
                      std::pair{2, 1}));

}  // namespace
}  // namespace falvolt::fx
