#include "snn/batchnorm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "compute/simd.h"
#include "test_util.h"

namespace falvolt::snn {
namespace {

using falvolt::testutil::analytic_grads;
using falvolt::testutil::numeric_grad;
using falvolt::testutil::random_tensor;

TEST(BatchNorm, NormalizesPerChannelInTraining) {
  common::Rng rng(1);
  BatchNorm2d bn("bn", 3);
  bn.reset_state();
  tensor::Tensor x = random_tensor({4, 3, 5, 5}, rng, -2.0, 5.0);
  const tensor::Tensor y = bn.forward(x, 0, Mode::kTrain);
  // Per channel: mean ~0, var ~1.
  const std::size_t plane = 25;
  for (int c = 0; c < 3; ++c) {
    double sum = 0.0, sq = 0.0;
    for (int n = 0; n < 4; ++n) {
      const float* p = y.data() + (static_cast<std::size_t>(n) * 3 + c) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        sum += p[i];
        sq += static_cast<double>(p[i]) * p[i];
      }
    }
    const double mean = sum / 100.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(sq / 100.0 - mean * mean, 1.0, 1e-3);
  }
}

TEST(BatchNorm, GammaBetaAffectOutput) {
  common::Rng rng(2);
  BatchNorm2d bn("bn", 1);
  bn.params()[0]->value[0] = 2.0f;  // gamma
  bn.params()[1]->value[0] = 5.0f;  // beta
  bn.reset_state();
  tensor::Tensor x = random_tensor({4, 1, 3, 3}, rng);
  const tensor::Tensor y = bn.forward(x, 0, Mode::kTrain);
  double sum = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) sum += y[i];
  EXPECT_NEAR(sum / y.size(), 5.0, 1e-4);  // beta shifts the mean
}

TEST(BatchNorm, EvalUsesRunningStats) {
  common::Rng rng(3);
  BatchNorm2d bn("bn", 2);
  // Train on several batches to populate running stats.
  for (int t = 0; t < 1; ++t) {
    for (int rep = 0; rep < 50; ++rep) {
      bn.reset_state();
      tensor::Tensor x = random_tensor({8, 2, 4, 4}, rng, 2.0, 4.0);
      bn.forward(x, 0, Mode::kTrain);
    }
  }
  EXPECT_NEAR(bn.running_mean()[0], 3.0, 0.1);
  // Eval: an input equal to the running mean maps near beta = 0.
  bn.reset_state();
  tensor::Tensor x({1, 2, 4, 4}, 3.0f);
  const tensor::Tensor y = bn.forward(x, 0, Mode::kEval);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], 0.0f, 0.3f);
  }
}

TEST(BatchNorm, StatsNotUpdatedInEval) {
  common::Rng rng(4);
  BatchNorm2d bn("bn", 1);
  const float mean_before = bn.running_mean()[0];
  bn.reset_state();
  tensor::Tensor x = random_tensor({4, 1, 4, 4}, rng, 10.0, 12.0);
  bn.forward(x, 0, Mode::kEval);
  EXPECT_EQ(bn.running_mean()[0], mean_before);
}

TEST(BatchNorm, RunningStatsExposedAsNonTrainableParams) {
  BatchNorm2d bn("bn", 2);
  const auto params = bn.params();
  ASSERT_EQ(params.size(), 4u);
  EXPECT_TRUE(params[0]->trainable);   // gamma
  EXPECT_TRUE(params[1]->trainable);   // beta
  EXPECT_FALSE(params[2]->trainable);  // running_mean
  EXPECT_FALSE(params[3]->trainable);  // running_var
}

TEST(BatchNorm, GradientsMatchFiniteDifference) {
  common::Rng rng(5);
  BatchNorm2d bn("bn", 2);
  const int T = 2;
  std::vector<tensor::Tensor> xs, ys;
  for (int t = 0; t < T; ++t) {
    xs.push_back(random_tensor({3, 2, 3, 3}, rng));
    ys.push_back(random_tensor({3, 2, 3, 3}, rng));
  }
  const auto grads = analytic_grads(bn, xs, ys);
  // Input gradient spot checks. Note: batch statistics depend on the
  // perturbed element, which the analytic backward fully accounts for.
  for (int t = 0; t < T; ++t) {
    for (const std::size_t i : {0u, 9u, 26u}) {
      const double num = numeric_grad(bn, xs, ys, &xs[t][i], 1e-3);
      EXPECT_NEAR(grads[t][i], num, 5e-2 * std::max(1.0, std::abs(num)));
    }
  }
  // Gamma / beta gradients.
  for (int pi = 0; pi < 2; ++pi) {
    for (std::size_t c = 0; c < 2; ++c) {
      Param* p = bn.params()[static_cast<std::size_t>(pi)];
      const float saved_grad = p->grad[c];
      const double num = numeric_grad(bn, xs, ys, &p->value[c], 1e-3);
      EXPECT_NEAR(saved_grad, num, 5e-2 * std::max(1.0, std::abs(num)));
    }
  }
}

// ---- Bit identity with the plain loops ----
//
// BatchNorm2d runs the double sums of four channels side by side, one per
// vector lane, and keeps its step caches across batches. None of that may
// move a bit. ScalarBatchNorm is the previous implementation's loops:
// one channel at a time, each sum a serial chain in (sample, pixel)
// order. Each multiply-add that GCC 12 contracts in those loops (read from
// its disassembly) is pinned with compute::madd / compute::nmadd, so the
// oracle rounds like the compiled loops in every build:
//   sq        = fma(double(x), double(x), sq)
//   var       = fma(-mean, mean, sq / n)
//   running   = fma(1 - momentum, running, momentum * float(stat))
//   y         = fma(gamma, x_hat, beta)
//   sum_dy_xh = fma(double(dy), double(x_hat), sum_dy_xh)
//   dx        = (gamma * inv_std) * fma(-x_hat, mean(dy x_hat), dy - mean(dy))
class ScalarBatchNorm {
 public:
  ScalarBatchNorm(const std::vector<float>& gamma,
                  const std::vector<float>& beta)
      : gamma_grad(gamma.size()),
        beta_grad(gamma.size()),
        running_mean(gamma.size(), 0.0f),
        running_var(gamma.size(), 1.0f),
        gamma_(gamma),
        beta_(beta) {}

  std::vector<float> gamma_grad;
  std::vector<float> beta_grad;
  std::vector<float> running_mean;
  std::vector<float> running_var;

  tensor::Tensor forward(const tensor::Tensor& x, bool train) {
    const int n = x.dim(0);
    const int channels = x.dim(1);
    const std::size_t plane = static_cast<std::size_t>(x.dim(2)) * x.dim(3);
    const std::size_t per_c = static_cast<std::size_t>(n) * plane;
    tensor::Tensor out(x.shape());
    tensor::Tensor x_hat(x.shape());
    std::vector<float> inv_stds(static_cast<std::size_t>(channels));
    for (int c = 0; c < channels; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      double mean;
      double var;
      if (train) {
        double sum = 0.0;
        double sq = 0.0;
        for (int s = 0; s < n; ++s) {
          const float* p =
              x.data() + (static_cast<std::size_t>(s) * channels + c) * plane;
          for (std::size_t i = 0; i < plane; ++i) {
            sum += p[i];
            sq = compute::madd(static_cast<double>(p[i]),
                               static_cast<double>(p[i]), sq);
          }
        }
        mean = sum / static_cast<double>(per_c);
        var = compute::nmadd(mean, mean, sq / static_cast<double>(per_c));
        if (var < 0.0) var = 0.0;
        running_mean[ci] = compute::madd(1.0f - kMomentum, running_mean[ci],
                                         kMomentum * static_cast<float>(mean));
        running_var[ci] = compute::madd(1.0f - kMomentum, running_var[ci],
                                        kMomentum * static_cast<float>(var));
      } else {
        mean = running_mean[ci];
        var = running_var[ci];
      }
      const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + kEps);
      inv_stds[ci] = inv_std;
      for (int s = 0; s < n; ++s) {
        const std::size_t off =
            (static_cast<std::size_t>(s) * channels + c) * plane;
        for (std::size_t i = 0; i < plane; ++i) {
          const float norm =
              (x.data()[off + i] - static_cast<float>(mean)) * inv_std;
          x_hat.data()[off + i] = norm;
          out.data()[off + i] = compute::madd(gamma_[ci], norm, beta_[ci]);
        }
      }
    }
    if (train) {
      x_hats_.push_back(x_hat);
      inv_stds_.push_back(inv_stds);
    }
    return out;
  }

  tensor::Tensor backward(const tensor::Tensor& grad_out, int t) {
    const tensor::Tensor& x_hat = x_hats_[static_cast<std::size_t>(t)];
    const std::vector<float>& inv_stds = inv_stds_[static_cast<std::size_t>(t)];
    const int n = grad_out.dim(0);
    const int channels = grad_out.dim(1);
    const std::size_t plane =
        static_cast<std::size_t>(grad_out.dim(2)) * grad_out.dim(3);
    const std::size_t per_c = static_cast<std::size_t>(n) * plane;
    tensor::Tensor grad_in(grad_out.shape());
    for (int c = 0; c < channels; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      double sum_dy = 0.0;
      double sum_dy_xhat = 0.0;
      for (int s = 0; s < n; ++s) {
        const std::size_t off =
            (static_cast<std::size_t>(s) * channels + c) * plane;
        for (std::size_t i = 0; i < plane; ++i) {
          sum_dy += grad_out.data()[off + i];
          sum_dy_xhat =
              compute::madd(static_cast<double>(grad_out.data()[off + i]),
                            static_cast<double>(x_hat.data()[off + i]),
                            sum_dy_xhat);
        }
      }
      gamma_grad[ci] += static_cast<float>(sum_dy_xhat);
      beta_grad[ci] += static_cast<float>(sum_dy);
      const float mean_dy = static_cast<float>(sum_dy / per_c);
      const float mean_dy_xhat = static_cast<float>(sum_dy_xhat / per_c);
      const float scale = gamma_[ci] * inv_stds[ci];
      for (int s = 0; s < n; ++s) {
        const std::size_t off =
            (static_cast<std::size_t>(s) * channels + c) * plane;
        for (std::size_t i = 0; i < plane; ++i) {
          grad_in.data()[off + i] =
              scale * compute::nmadd(x_hat.data()[off + i], mean_dy_xhat,
                                     grad_out.data()[off + i] - mean_dy);
        }
      }
    }
    return grad_in;
  }

  static constexpr float kMomentum = 0.1f;
  static constexpr float kEps = 1e-5f;

 private:
  std::vector<float> gamma_;
  std::vector<float> beta_;
  std::vector<tensor::Tensor> x_hats_;
  std::vector<std::vector<float>> inv_stds_;
};

// Bit identity, where a NaN matches any NaN (testutil::first_bit_difference:
// a NaN input meets NaNs the channel's statistics derive from it).
void expect_same_bits(const float* got, const float* want, std::size_t n,
                      const std::string& what) {
  const std::size_t i = falvolt::testutil::first_bit_difference(got, want, n);
  EXPECT_EQ(i, n) << what << " differs at " << i;
}

// Random values, -0 at every 7th entry, and in the first sample's first
// element one of NaN, +Inf and -Inf for the channels 1, 2 and 3 (offset by
// `shift`), so the other channels stay finite.
tensor::Tensor edge_input(tensor::Shape shape, common::Rng& rng, int shift) {
  tensor::Tensor x = random_tensor(std::move(shape), rng, -2.0, 3.0);
  for (std::size_t i = 2; i < x.size(); i += 7) x[i] = -0.0f;
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
  const std::size_t plane = static_cast<std::size_t>(x.dim(2)) * x.dim(3);
  for (int k = 0; k < 3; ++k) {
    const int c = 1 + k + shift;
    if (c < x.dim(1)) x[static_cast<std::size_t>(c) * plane] = specials[k];
  }
  return x;
}

TEST(BatchNormBitIdentity, MatchesScalarLoops) {
  constexpr int kSteps = 2;
  const int planes[][2] = {{1, 1}, {3, 5}, {4, 4}, {16, 16}};
  for (const int channels : {1, 3, 4, 5, 8, 13}) {
    for (const auto& hw : planes) {
      for (const int n : {1, 7, 32}) {
        SCOPED_TRACE("channels=" + std::to_string(channels) + " " +
                     std::to_string(hw[0]) + "x" + std::to_string(hw[1]) +
                     " n=" + std::to_string(n));
        common::Rng rng(static_cast<std::uint64_t>(channels) * 1000 +
                        static_cast<std::uint64_t>(hw[0] * 40 + hw[1]) * 7 +
                        static_cast<std::uint64_t>(n));
        BatchNorm2d bn("bn", channels);
        const auto params = bn.params();
        for (auto& v : params[0]->value) {
          v = static_cast<float>(rng.uniform(0.5, 1.5));
        }
        for (auto& v : params[1]->value) {
          v = static_cast<float>(rng.uniform(-0.5, 0.5));
        }
        ScalarBatchNorm ref(
            std::vector<float>(params[0]->value.begin(),
                               params[0]->value.end()),
            std::vector<float>(params[1]->value.begin(),
                               params[1]->value.end()));
        const tensor::Shape shape{n, channels, hw[0], hw[1]};
        bn.reset_state();
        std::vector<tensor::Tensor> xs;
        for (int t = 0; t < kSteps; ++t) {
          xs.push_back(edge_input(shape, rng, t));
          expect_same_bits(bn.forward(xs.back(), t, Mode::kTrain).data(),
                           ref.forward(xs.back(), true).data(),
                           xs.back().size(), "train output");
        }
        for (int t = kSteps - 1; t >= 0; --t) {
          const tensor::Tensor g = edge_input(shape, rng, 2 - t);
          expect_same_bits(bn.backward(g, t).data(), ref.backward(g, t).data(),
                           g.size(), "input gradient");
        }
        const std::size_t c = static_cast<std::size_t>(channels);
        expect_same_bits(params[0]->grad.data(), ref.gamma_grad.data(), c,
                         "gamma gradient");
        expect_same_bits(params[1]->grad.data(), ref.beta_grad.data(), c,
                         "beta gradient");
        expect_same_bits(bn.running_mean().data(), ref.running_mean.data(), c,
                         "running mean");
        expect_same_bits(bn.running_var().data(), ref.running_var.data(), c,
                         "running variance");
        bn.reset_state();
        const tensor::Tensor x = edge_input(shape, rng, 0);
        expect_same_bits(bn.forward(x, 0, Mode::kEval).data(),
                         ref.forward(x, false).data(), x.size(),
                         "eval output");
        if (HasFailure()) return;
      }
    }
  }
}

TEST(BatchNorm, WrongChannelCountThrows) {
  BatchNorm2d bn("bn", 3);
  bn.reset_state();
  EXPECT_THROW(bn.forward(tensor::Tensor({1, 2, 4, 4}), 0, Mode::kTrain),
               std::invalid_argument);
  EXPECT_THROW(BatchNorm2d("bad", 0), std::invalid_argument);
}

}  // namespace
}  // namespace falvolt::snn
