#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>

#include "snn/dropout.h"
#include "snn/flatten.h"
#include "snn/pooling.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace falvolt::snn {
namespace {

using falvolt::testutil::random_tensor;

TEST(AvgPool, Averages2x2Windows) {
  AvgPool2d pool("p");
  pool.reset_state();
  tensor::Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  const tensor::Tensor y = pool.forward(x, 0, Mode::kEval);
  EXPECT_EQ(y.shape(), (tensor::Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 2.5f);
}

TEST(AvgPool, PreservesSpikeRateMass) {
  common::Rng rng(1);
  AvgPool2d pool("p");
  pool.reset_state();
  tensor::Tensor x = random_tensor({2, 3, 8, 8}, rng, 0.0, 1.0);
  const tensor::Tensor y = pool.forward(x, 0, Mode::kEval);
  EXPECT_NEAR(tensor::sum(y) * 4.0, tensor::sum(x), 1e-3);
}

TEST(AvgPool, BackwardDistributesEvenly) {
  AvgPool2d pool("p");
  pool.reset_state();
  tensor::Tensor x({1, 1, 2, 2});
  pool.forward(x, 0, Mode::kTrain);
  tensor::Tensor g({1, 1, 1, 1}, {8.0f});
  const tensor::Tensor gi = pool.backward(g, 0);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(gi[i], 2.0f);
}

TEST(AvgPool, IndivisibleSizeThrows) {
  AvgPool2d pool("p");
  pool.reset_state();
  EXPECT_THROW(pool.forward(tensor::Tensor({1, 1, 3, 4}), 0, Mode::kEval),
               std::invalid_argument);
  EXPECT_THROW(pool.forward(tensor::Tensor({1, 1, 4, 3}), 0, Mode::kEval),
               std::invalid_argument);
}

// AvgPool2d's vector paths (8 outputs per vector, two output rows at a
// time at output width 4) against plain 2x2 window loops, byte for byte.
constexpr int kWindow = 2;

tensor::Tensor generic_pool(const tensor::Tensor& x) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int oh = h / kWindow, ow = w / kWindow;
  const float inv = 1.0f / static_cast<float>(kWindow * kWindow);
  tensor::Tensor out({n, c, oh, ow});
  for (int plane = 0; plane < n * c; ++plane) {
    const float* in = x.data() + static_cast<std::size_t>(plane) * h * w;
    float* o = out.data() + static_cast<std::size_t>(plane) * oh * ow;
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        float acc = 0.0f;
        for (int ky = 0; ky < kWindow; ++ky) {
          const float* row = in + (oy * kWindow + ky) * w + ox * kWindow;
          for (int kx = 0; kx < kWindow; ++kx) acc += row[kx];
        }
        o[oy * ow + ox] = acc * inv;
      }
    }
  }
  return out;
}

tensor::Tensor generic_unpool(const tensor::Tensor& g,
                              const tensor::Shape& in_shape) {
  const int h = in_shape[2], w = in_shape[3];
  const int oh = h / kWindow, ow = w / kWindow;
  const float inv = 1.0f / static_cast<float>(kWindow * kWindow);
  tensor::Tensor gi(in_shape);
  for (int plane = 0; plane < in_shape[0] * in_shape[1]; ++plane) {
    const float* go = g.data() + static_cast<std::size_t>(plane) * oh * ow;
    float* in = gi.data() + static_cast<std::size_t>(plane) * h * w;
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        const float v = go[oy * ow + ox] * inv;
        for (int ky = 0; ky < kWindow; ++ky) {
          float* row = in + (oy * kWindow + ky) * w + ox * kWindow;
          for (int kx = 0; kx < kWindow; ++kx) row[kx] += v;
        }
      }
    }
  }
  return gi;
}

// Values in [-2, 2] with some exact zeros, -0.0f and NaN.
tensor::Tensor pool_input(tensor::Shape shape, common::Rng& rng) {
  tensor::Tensor x(std::move(shape));
  for (auto& v : x) {
    const double pick = rng.uniform();
    v = pick < 0.05   ? std::numeric_limits<float>::quiet_NaN()
        : pick < 0.15 ? -0.0f
        : pick < 0.3  ? 0.0f
                      : static_cast<float>(rng.uniform(-2.0, 2.0));
  }
  return x;
}

TEST(AvgPool, BitIdenticalToGenericLoops) {
  common::Rng rng(12);
  // Output widths 1-16 cover the width-4 pair path, whole vectors of 8
  // (8, 12 = 8 + 4 scalar tail) and odd widths; odd heights leave the
  // width-4 path a last single row.
  for (const int oh : {1, 2, 3, 4, 5}) {
    for (const int ow : {1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 16}) {
      SCOPED_TRACE(std::to_string(oh) + "x" + std::to_string(ow) +
                   " outputs");
      AvgPool2d pool("p");
      pool.reset_state();
      const tensor::Tensor x =
          pool_input({2, 3, oh * kWindow, ow * kWindow}, rng);
      const tensor::Tensor y = pool.forward(x, 0, Mode::kTrain);
      const tensor::Tensor want = generic_pool(x);
      ASSERT_EQ(y.shape(), want.shape());
      EXPECT_EQ(0,
                std::memcmp(y.data(), want.data(), sizeof(float) * y.size()));
      const tensor::Tensor g = pool_input(y.shape(), rng);
      const tensor::Tensor gi = pool.backward(g, 0);
      const tensor::Tensor gi_want = generic_unpool(g, x.shape());
      ASSERT_EQ(gi.shape(), gi_want.shape());
      EXPECT_EQ(0, std::memcmp(gi.data(), gi_want.data(),
                               sizeof(float) * gi.size()));
    }
  }
}

TEST(Dropout, EvalIsIdentity) {
  Dropout d("d", 0.5f, 42);
  d.reset_state();
  common::Rng rng(2);
  tensor::Tensor x = random_tensor({4, 8}, rng);
  const tensor::Tensor y = d.forward(x, 0, Mode::kEval);
  EXPECT_EQ(tensor::max_abs_diff(x, y), 0.0);
}

TEST(Dropout, TrainZerosSomeAndRescales) {
  Dropout d("d", 0.5f, 42);
  d.reset_state();
  tensor::Tensor x({1, 1000}, 1.0f);
  const tensor::Tensor y = d.forward(x, 0, Mode::kTrain);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_TRUE(y[i] == 0.0f || y[i] == 2.0f);  // 1/(1-0.5) scaling
    if (y[i] == 0.0f) ++zeros;
  }
  EXPECT_NEAR(static_cast<double>(zeros), 500.0, 60.0);
}

TEST(Dropout, MaskSharedAcrossTimeSteps) {
  Dropout d("d", 0.5f, 7);
  d.reset_state();
  tensor::Tensor x({1, 64}, 1.0f);
  const tensor::Tensor y0 = d.forward(x, 0, Mode::kTrain);
  const tensor::Tensor y1 = d.forward(x, 1, Mode::kTrain);
  EXPECT_EQ(tensor::max_abs_diff(y0, y1), 0.0);
}

TEST(Dropout, NewMaskEachSequence) {
  Dropout d("d", 0.5f, 7);
  tensor::Tensor x({1, 256}, 1.0f);
  d.reset_state();
  const tensor::Tensor a = d.forward(x, 0, Mode::kTrain);
  d.reset_state();
  const tensor::Tensor b = d.forward(x, 0, Mode::kTrain);
  EXPECT_GT(tensor::max_abs_diff(a, b), 0.0);
}

TEST(Dropout, BackwardUsesSameMask) {
  Dropout d("d", 0.5f, 9);
  d.reset_state();
  tensor::Tensor x({1, 32}, 1.0f);
  const tensor::Tensor y = d.forward(x, 0, Mode::kTrain);
  tensor::Tensor g({1, 32}, 1.0f);
  const tensor::Tensor gi = d.backward(g, 0);
  EXPECT_EQ(tensor::max_abs_diff(y, gi), 0.0);  // same mask, same scale
}

TEST(Dropout, InvalidProbabilityThrows) {
  EXPECT_THROW(Dropout("d", -0.1f, 1), std::invalid_argument);
  EXPECT_THROW(Dropout("d", 1.0f, 1), std::invalid_argument);
}

TEST(Dropout, ZeroProbabilityIsIdentityInTrain) {
  Dropout d("d", 0.0f, 1);
  d.reset_state();
  common::Rng rng(3);
  tensor::Tensor x = random_tensor({2, 4}, rng);
  EXPECT_EQ(tensor::max_abs_diff(d.forward(x, 0, Mode::kTrain), x), 0.0);
}

TEST(Flatten, RoundTrip) {
  Flatten f("f");
  f.reset_state();
  common::Rng rng(4);
  tensor::Tensor x = random_tensor({2, 3, 4, 5}, rng);
  const tensor::Tensor y = f.forward(x, 0, Mode::kTrain);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 60}));
  const tensor::Tensor back = f.backward(y, 0);
  EXPECT_EQ(back.shape(), x.shape());
  EXPECT_EQ(tensor::max_abs_diff(back, x), 0.0);
}

TEST(Flatten, RequiresRank4) {
  Flatten f("f");
  f.reset_state();
  EXPECT_THROW(f.forward(tensor::Tensor({2, 3}), 0, Mode::kEval),
               std::invalid_argument);
}

}  // namespace
}  // namespace falvolt::snn
