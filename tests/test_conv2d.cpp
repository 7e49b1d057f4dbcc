#include "snn/conv2d.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "compute/gemm_kernels.h"
#include "compute/thread_pool.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace falvolt::snn {
namespace {

using falvolt::testutil::analytic_grads;
using falvolt::testutil::numeric_grad;
using falvolt::testutil::random_tensor;

TEST(Conv2d, OutputShapeSamePadding) {
  common::Rng rng(1);
  Conv2d conv("c", 2, 4, 3, 1, rng);
  conv.reset_state();
  tensor::Tensor x = random_tensor({3, 2, 8, 8}, rng);
  const tensor::Tensor y = conv.forward(x, 0, Mode::kEval);
  EXPECT_EQ(y.shape(), (tensor::Shape{3, 4, 8, 8}));
}

TEST(Conv2d, GemmDimensionsExposed) {
  common::Rng rng(2);
  Conv2d conv("c", 2, 4, 3, 1, rng);
  EXPECT_EQ(conv.gemm_k(), 18);  // 2 * 3 * 3
  EXPECT_EQ(conv.gemm_m(), 4);
  EXPECT_EQ(conv.weight_param().value.shape(), (tensor::Shape{18, 4}));
}

TEST(Conv2d, KnownConvolutionResult) {
  common::Rng rng(3);
  Conv2d conv("c", 1, 1, 3, 1, rng, /*bias=*/false);
  // Identity kernel: only the center tap is 1.
  conv.weight_param().value.zero();
  conv.weight_param().value.at2(4, 0) = 1.0f;
  conv.reset_state();
  tensor::Tensor x = random_tensor({1, 1, 5, 5}, rng);
  const tensor::Tensor y = conv.forward(x, 0, Mode::kEval);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2d, BiasAdds) {
  common::Rng rng(4);
  Conv2d conv("c", 1, 2, 1, 0, rng);
  conv.weight_param().value.zero();
  auto params = conv.params();
  ASSERT_EQ(params.size(), 2u);
  params[1]->value[0] = 1.5f;
  params[1]->value[1] = -0.5f;
  conv.reset_state();
  tensor::Tensor x({1, 1, 2, 2});
  const tensor::Tensor y = conv.forward(x, 0, Mode::kEval);
  EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 1.5f);
  EXPECT_FLOAT_EQ(y.at4(0, 1, 1, 1), -0.5f);
}

TEST(Conv2d, InputValidation) {
  common::Rng rng(5);
  Conv2d conv("c", 2, 4, 3, 1, rng);
  conv.reset_state();
  tensor::Tensor wrong_channels({1, 3, 8, 8});
  EXPECT_THROW(conv.forward(wrong_channels, 0, Mode::kEval),
               std::invalid_argument);
  EXPECT_THROW(Conv2d("bad", 0, 1, 3, 1, rng), std::invalid_argument);
}

TEST(Conv2d, WeightGradientMatchesFiniteDifference) {
  common::Rng rng(6);
  Conv2d conv("c", 2, 3, 3, 1, rng);
  const int T = 2;
  std::vector<tensor::Tensor> xs, ys;
  for (int t = 0; t < T; ++t) {
    xs.push_back(random_tensor({2, 2, 5, 5}, rng));
    ys.push_back(random_tensor({2, 3, 5, 5}, rng));
  }
  analytic_grads(conv, xs, ys);
  Param& w = conv.weight_param();
  // Spot check a handful of weights.
  for (const std::size_t i :
       {std::size_t{0}, std::size_t{7}, std::size_t{23}, std::size_t{50},
        w.value.size() - 1}) {
    const double num = numeric_grad(conv, xs, ys, &w.value[i], 1e-3);
    EXPECT_NEAR(w.grad[i], num, 2e-2 * std::max(1.0, std::abs(num))) << i;
  }
}

TEST(Conv2d, InputGradientMatchesFiniteDifference) {
  common::Rng rng(7);
  Conv2d conv("c", 1, 2, 3, 1, rng);
  const int T = 2;
  std::vector<tensor::Tensor> xs, ys;
  for (int t = 0; t < T; ++t) {
    xs.push_back(random_tensor({1, 1, 4, 4}, rng));
    ys.push_back(random_tensor({1, 2, 4, 4}, rng));
  }
  const auto grads = analytic_grads(conv, xs, ys);
  for (int t = 0; t < T; ++t) {
    for (const std::size_t i : {0u, 5u, 15u}) {
      const double num = numeric_grad(conv, xs, ys, &xs[t][i], 1e-3);
      EXPECT_NEAR(grads[t][i], num, 2e-2 * std::max(1.0, std::abs(num)));
    }
  }
}

TEST(Conv2d, BiasGradientIsSumOfOutputGrad) {
  common::Rng rng(8);
  Conv2d conv("c", 1, 1, 1, 0, rng);
  std::vector<tensor::Tensor> xs{random_tensor({1, 1, 3, 3}, rng)};
  std::vector<tensor::Tensor> ys{tensor::Tensor({1, 1, 3, 3}, 1.0f)};
  analytic_grads(conv, xs, ys);
  EXPECT_FLOAT_EQ(conv.params()[1]->grad[0], 9.0f);
}

TEST(Conv2d, GemmEngineIsPluggable) {
  // A counting engine proves the layer routes its GEMM through the hook.
  class CountingEngine final : public GemmEngine {
   public:
    void run(const float* a, const float* w, float* c, int m, int k, int n,
             const std::string& tag) override {
      FloatGemmEngine::instance().run(a, w, c, m, k, n, tag);
      ++calls;
      last_tag = tag;
    }
    int calls = 0;
    std::string last_tag;
  };
  common::Rng rng(9);
  Conv2d conv("my_conv", 1, 2, 3, 1, rng);
  CountingEngine engine;
  conv.set_gemm_engine(&engine);
  conv.reset_state();
  tensor::Tensor x = random_tensor({1, 1, 4, 4}, rng);
  const tensor::Tensor with_engine = conv.forward(x, 0, Mode::kEval);
  EXPECT_EQ(engine.calls, 1);
  EXPECT_EQ(engine.last_tag, "my_conv");
  conv.set_gemm_engine(nullptr);
  conv.reset_state();
  const tensor::Tensor without = conv.forward(x, 0, Mode::kEval);
  EXPECT_EQ(tensor::max_abs_diff(with_engine, without), 0.0);
}

TEST(Conv2d, SpatialSizeChangeMidSequenceThrows) {
  common::Rng rng(10);
  Conv2d conv("c", 1, 1, 3, 1, rng);
  conv.reset_state();
  conv.forward(tensor::Tensor({1, 1, 4, 4}), 0, Mode::kTrain);
  EXPECT_THROW(conv.forward(tensor::Tensor({1, 1, 6, 6}), 1, Mode::kTrain),
               std::invalid_argument);
}

// --------------------------------------------------------- bit identity
//
// Conv2d runs on a direct forward kernel (with or without the float
// engine set), a weight gradient read in place from the zero-bordered
// samples on the schedule gemm_at_b's density rule picks, copy-light
// batched col2im and, at Cout = 8, a fused shifted-plane input gradient.
// None of that may move a bit. The reference below is the plain
// lowering: per-sample im2col/col2im loops with a bounds check per tap,
// the zero-skip forward GEMM, and the backward tiers that
// tensor::gemm_at_b / gemm_a_bt pick for the whole batch's matrices.
namespace reference {

void im2col(const float* input, const tensor::ConvGeometry& g, float* out) {
  const int patch = g.patch_size();
  for (int oy = 0; oy < g.out_h(); ++oy) {
    for (int ox = 0; ox < g.out_w(); ++ox) {
      float* row =
          out + (static_cast<std::size_t>(oy) * g.out_w() + ox) * patch;
      int col = 0;
      for (int c = 0; c < g.in_channels; ++c) {
        const float* plane =
            input + static_cast<std::size_t>(c) * g.in_h * g.in_w;
        for (int ky = 0; ky < g.kernel_h; ++ky) {
          const int iy = oy * g.stride + ky - g.pad;
          for (int kx = 0; kx < g.kernel_w; ++kx, ++col) {
            const int ix = ox * g.stride + kx - g.pad;
            if (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w) {
              row[col] = plane[static_cast<std::size_t>(iy) * g.in_w + ix];
            }
          }
        }
      }
    }
  }
}

void col2im(const float* cols, const tensor::ConvGeometry& g,
            float* grad_input) {
  const int patch = g.patch_size();
  for (int oy = 0; oy < g.out_h(); ++oy) {
    for (int ox = 0; ox < g.out_w(); ++ox) {
      const float* row =
          cols + (static_cast<std::size_t>(oy) * g.out_w() + ox) * patch;
      int col = 0;
      for (int c = 0; c < g.in_channels; ++c) {
        float* plane =
            grad_input + static_cast<std::size_t>(c) * g.in_h * g.in_w;
        for (int ky = 0; ky < g.kernel_h; ++ky) {
          const int iy = oy * g.stride + ky - g.pad;
          for (int kx = 0; kx < g.kernel_w; ++kx, ++col) {
            const int ix = ox * g.stride + kx - g.pad;
            if (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w) {
              plane[static_cast<std::size_t>(iy) * g.in_w + ix] += row[col];
            }
          }
        }
      }
    }
  }
}

// Nonzero share of the first 32 rows of a [rows x cols] matrix: the
// dispatchers' density probe.
double sampled_density(const float* a, int rows, int cols) {
  const int probe = std::min(rows, 32);
  if (probe == 0 || cols == 0) return 1.0;
  std::size_t nz = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(probe) * cols; ++i) {
    nz += a[i] != 0.0f;
  }
  return static_cast<double>(nz) / (static_cast<double>(probe) * cols);
}

struct Conv {
  tensor::ConvGeometry g;
  int out_channels;
  const tensor::Tensor* weight;  // [K x Cout]
  const tensor::Tensor* bias;    // [Cout]
};

tensor::Tensor forward(const Conv& cv, const tensor::Tensor& x,
                       tensor::Tensor& cols) {
  const int n = x.dim(0);
  const int p = cv.g.out_pixels();
  const int k = cv.g.patch_size();
  const int m = cv.out_channels;
  cols = tensor::Tensor({n * p, k});
  const std::size_t in_plane =
      static_cast<std::size_t>(cv.g.in_channels) * cv.g.in_h * cv.g.in_w;
  for (int s = 0; s < n; ++s) {
    im2col(x.data() + s * in_plane, cv.g,
           cols.data() + static_cast<std::size_t>(s) * p * k);
  }
  tensor::Tensor prod({n * p, m});
  compute::gemm_naive(cols.data(), cv.weight->data(), prod.data(), n * p, k,
                      m);
  tensor::Tensor out({n, m, cv.g.out_h(), cv.g.out_w()});
  for (int s = 0; s < n; ++s) {
    for (int pix = 0; pix < p; ++pix) {
      for (int c = 0; c < m; ++c) {
        out.data()[(static_cast<std::size_t>(s) * m + c) * p + pix] =
            prod.data()[(static_cast<std::size_t>(s) * p + pix) * m + c] +
            (*cv.bias)[static_cast<std::size_t>(c)];
      }
    }
  }
  return out;
}

tensor::Tensor backward(const Conv& cv, const tensor::Tensor& cols,
                        const tensor::Tensor& grad_out,
                        tensor::Tensor& weight_grad,
                        tensor::Tensor& bias_grad, bool& blocked) {
  const int n = grad_out.dim(0);
  const int p = cv.g.out_pixels();
  const int k = cv.g.patch_size();
  const int m = cv.out_channels;
  tensor::Tensor g({n * p, m});
  for (int s = 0; s < n; ++s) {
    for (int c = 0; c < m; ++c) {
      for (int pix = 0; pix < p; ++pix) {
        g.data()[(static_cast<std::size_t>(s) * p + pix) * m + c] =
            grad_out.data()[(static_cast<std::size_t>(s) * m + c) * p + pix];
      }
    }
  }
  const long long rows = static_cast<long long>(n) * p;
  blocked = m >= 8 && k >= 16 && rows >= 8 && rows * k * m >= 1LL << 20 &&
            sampled_density(cols.data(), n * p, k) >= 0.2;
  if (blocked) {
    compute::gemm_at_b_blocked(cols.data(), g.data(), weight_grad.data(),
                               n * p, k, m, /*accumulate=*/true);
  } else {
    compute::gemm_at_b_naive(cols.data(), g.data(), weight_grad.data(), n * p,
                             k, m, /*accumulate=*/true);
  }
  for (long long row = 0; row < rows; ++row) {
    for (int c = 0; c < m; ++c) {
      bias_grad[static_cast<std::size_t>(c)] +=
          g.data()[static_cast<std::size_t>(row) * m + c];
    }
  }
  tensor::Tensor dcols({n * p, k});
  if (m >= 8 && rows * m * k >= 1LL << 14) {
    compute::gemm_a_bt_blocked(g.data(), cv.weight->data(), dcols.data(),
                               n * p, m, k);
  } else {
    compute::gemm_a_bt_naive(g.data(), cv.weight->data(), dcols.data(), n * p,
                             m, k);
  }
  tensor::Tensor grad_in({n, cv.g.in_channels, cv.g.in_h, cv.g.in_w});
  const std::size_t in_plane =
      static_cast<std::size_t>(cv.g.in_channels) * cv.g.in_h * cv.g.in_w;
  for (int s = 0; s < n; ++s) {
    col2im(dcols.data() + static_cast<std::size_t>(s) * p * k, cv.g,
           grad_in.data() + s * in_plane);
  }
  return grad_in;
}

}  // namespace reference

void expect_same_bits(const tensor::Tensor& got, const tensor::Tensor& want,
                      const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), sizeof(float) * got.size()),
            0)
      << what << " differs (max |diff| "
      << tensor::max_abs_diff(got, want) << ")";
}

// Bit identity where NaNs meet (testutil::first_bit_difference).
void expect_same_bits_or_nan(const tensor::Tensor& got,
                             const tensor::Tensor& want,
                             const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  const std::size_t i = falvolt::testutil::first_bit_difference(
      got.data(), want.data(), got.size());
  EXPECT_EQ(i, got.size()) << what << " differs at " << i;
}

class ThreadScope {
 public:
  explicit ThreadScope(int threads) : saved_(compute::global_threads()) {
    compute::set_global_threads(threads);
  }
  ~ThreadScope() { compute::set_global_threads(saved_); }

 private:
  int saved_;
};

// Spike trains (binary, ones at rate `density`) or analog values in
// [-1, 1], nonzero at rate `density`.
tensor::Tensor conv_input(tensor::Shape shape, bool binary,
                          common::Rng& rng, double density = 0.15) {
  tensor::Tensor x(std::move(shape));
  for (auto& v : x) {
    v = binary ? (rng.bernoulli(density) ? 1.0f : 0.0f)
               : (density >= 1.0 || rng.bernoulli(density)
                      ? static_cast<float>(rng.uniform(-1.0, 1.0))
                      : 0.0f);
  }
  return x;
}

struct ConvShape {
  int cin, cout, kernel, pad, h, w, batch;
  bool binary;
  double density;  // share of nonzero inputs
};

std::string describe(const ConvShape& sh) {
  return "cin=" + std::to_string(sh.cin) + " cout=" + std::to_string(sh.cout) +
         " kernel=" + std::to_string(sh.kernel) + " pad=" +
         std::to_string(sh.pad) + " " + std::to_string(sh.h) + "x" +
         std::to_string(sh.w) + " batch=" + std::to_string(sh.batch) +
         (sh.binary ? " binary" : " analog") + " density=" +
         std::to_string(sh.density);
}

// Runs train-mode forwards and backwards over two time steps, an
// eval-mode forward (the direct kernel with no im2col matrix), and the
// same forwards on a twin layer whose float engine is set explicitly,
// all against the plain lowering. Returns how many steps' weight
// gradients the reference computed on the blocked gemm_at_b tier.
//
// With `edge_values`, three weights are NaN, +Inf and -Inf and every
// fifth output gradient is -0: the input gradient must skip the taps that
// fall outside the output, never read them as 0 (0 * Inf is NaN). The
// forwards are not compared then: the reference's zero-skip GEMM leaves
// out the 0 * Inf terms that the direct kernel, like the blocked GEMM it
// reproduces, adds.
int expect_matches_lowering(const ConvShape& sh, std::uint64_t seed,
                            bool edge_values = false) {
  constexpr int kSteps = 2;
  common::Rng rng(seed);
  Conv2d conv("c", sh.cin, sh.cout, sh.kernel, sh.pad, rng);
  std::vector<Param*> params = conv.params();
  for (auto& b : params[1]->value) {
    b = static_cast<float>(rng.uniform(-0.5, 0.5));
  }
  if (edge_values) {
    tensor::Tensor& w = params[0]->value;
    w[0] = std::numeric_limits<float>::quiet_NaN();
    w[w.size() / 2] = std::numeric_limits<float>::infinity();
    w[w.size() - 1] = -std::numeric_limits<float>::infinity();
  }
  conv.reset_state();
  Conv2d lowered("c", sh.cin, sh.cout, sh.kernel, sh.pad, rng);
  lowered.params()[0]->value = params[0]->value;
  lowered.params()[1]->value = params[1]->value;
  lowered.set_gemm_engine(&FloatGemmEngine::instance());
  lowered.reset_state();

  reference::Conv cv;
  cv.g.in_channels = sh.cin;
  cv.g.in_h = sh.h;
  cv.g.in_w = sh.w;
  cv.g.kernel_h = cv.g.kernel_w = sh.kernel;
  cv.g.pad = sh.pad;
  cv.out_channels = sh.cout;
  cv.weight = &params[0]->value;
  cv.bias = &params[1]->value;

  std::vector<tensor::Tensor> cols(kSteps);
  std::vector<tensor::Tensor> outs;
  for (int t = 0; t < kSteps; ++t) {
    const tensor::Tensor x = conv_input({sh.batch, sh.cin, sh.h, sh.w},
                                        sh.binary, rng, sh.density);
    outs.push_back(conv.forward(x, t, Mode::kTrain));
    const tensor::Tensor want = reference::forward(cv, x, cols[t]);
    if (edge_values) continue;
    expect_same_bits(outs.back(), want, "output");
    expect_same_bits(conv.forward(x, t, Mode::kEval), want, "eval output");
    expect_same_bits(lowered.forward(x, t, Mode::kTrain), want,
                     "engine output");
    expect_same_bits(lowered.forward(x, t, Mode::kEval), want,
                     "engine eval output");
  }
  tensor::Tensor weight_grad(params[0]->value.shape());
  tensor::Tensor bias_grad(params[1]->value.shape());
  int blocked = 0;
  for (int t = kSteps - 1; t >= 0; --t) {
    tensor::Tensor grad_out =
        conv_input(outs[static_cast<std::size_t>(t)].shape(), false, rng, 1.0);
    if (edge_values) {
      for (std::size_t i = 0; i < grad_out.size(); i += 5) grad_out[i] = -0.0f;
    }
    bool step_blocked = false;
    expect_same_bits_or_nan(
        conv.backward(grad_out, t),
        reference::backward(cv, cols[static_cast<std::size_t>(t)], grad_out,
                            weight_grad, bias_grad, step_blocked),
        "input gradient");
    blocked += step_blocked;
  }
  expect_same_bits(params[0]->grad, weight_grad, "weight gradient");
  expect_same_bits(params[1]->grad, bias_grad, "bias gradient");
  return blocked;
}

class ConvBitIdentity : public ::testing::TestWithParam<int> {};

// The 3x3 and 6x6 planes are the gesture model's deepest.
TEST_P(ConvBitIdentity, MatchesPlainLowering) {
  ThreadScope threads(GetParam());
  const int sizes[][2] = {{3, 3}, {4, 4}, {5, 7}, {6, 6}, {16, 16}};
  for (const int cin : {1, 2, 8}) {
    for (const int cout : {1, 3, 4, 5, 8, 16}) {
      for (const int kernel : {1, 3}) {
        for (const int pad : {0, 1}) {
          for (const auto& hw : sizes) {
            for (const bool binary : {true, false}) {
              const ConvShape sh{cin,   cout,  kernel, pad,
                                 hw[0], hw[1], 8,      binary,
                                 binary ? 0.15 : 1.0};
              SCOPED_TRACE(describe(sh));
              expect_matches_lowering(
                  sh, static_cast<std::uint64_t>(cin * 1000 + cout * 100 +
                                                 kernel * 10 + pad +
                                                 hw[1] * 7 + binary));
              if (HasFailure()) return;
            }
          }
        }
      }
    }
  }
}

// The weight gradient's two schedules, which the density of the im2col
// matrix's first 32 rows picks: dense inputs take the blocked tier's
// kKc-row panels (here also straddling samples, at 12x12 planes), sparse
// ones the single chain. K = 18 is the DVS model's first layer; Cout 5
// never takes the blocked tier.
TEST_P(ConvBitIdentity, TrainingSchedules) {
  ThreadScope threads(GetParam());
  struct Case {
    ConvShape shape;
    int blocked_steps;  // of 2
  };
  const Case cases[] = {
      {{2, 16, 3, 1, 16, 16, 16, false, 1.0}, 2},
      {{2, 16, 3, 1, 16, 16, 16, true, 0.35}, 2},
      {{2, 16, 3, 1, 16, 16, 16, true, 0.05}, 0},
      {{2, 5, 3, 1, 16, 16, 16, false, 1.0}, 0},
      {{8, 8, 3, 1, 16, 16, 8, true, 0.4}, 2},
      {{8, 8, 3, 1, 16, 16, 8, true, 0.1}, 0},
      {{8, 16, 3, 1, 12, 12, 16, false, 0.6}, 2},
      {{8, 16, 3, 1, 12, 12, 16, true, 0.08}, 0},
      {{8, 5, 3, 1, 12, 12, 16, false, 1.0}, 0},
      {{8, 16, 3, 0, 9, 9, 32, false, 1.0}, 2},
  };
  int index = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(describe(c.shape));
    EXPECT_EQ(expect_matches_lowering(c.shape, 500 + index++),
              c.blocked_steps);
    if (HasFailure()) return;
  }
}

// Non-finite weights and -0 output gradients, through the fused Cout = 8
// input gradient and the per-sample blocks of col2im.
TEST_P(ConvBitIdentity, EdgeValues) {
  ThreadScope threads(GetParam());
  const int sizes[][2] = {{3, 3}, {5, 7}, {16, 16}};
  for (const int cin : {1, 2, 8}) {
    for (const int cout : {5, 8}) {
      for (const int pad : {0, 1}) {
        for (const auto& hw : sizes) {
          const ConvShape sh{cin, cout, 3, pad, hw[0], hw[1], 8, false, 1.0};
          SCOPED_TRACE(describe(sh) + " edge values");
          expect_matches_lowering(
              sh, static_cast<std::uint64_t>(9000 + cin * 100 + cout * 10 +
                                             pad + hw[1]),
              true);
          if (HasFailure()) return;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ConvBitIdentity, ::testing::Values(1, 4));

}  // namespace
}  // namespace falvolt::snn
