#include <gtest/gtest.h>

#include <cmath>

#include "snn/loss.h"
#include "snn/optimizer.h"

namespace falvolt::snn {
namespace {

TEST(RateMseLoss, PerfectPredictionZeroLoss) {
  tensor::Tensor rate({2, 3}, {1, 0, 0, 0, 0, 1});
  const LossResult r = rate_mse_loss(rate, {0, 2});
  EXPECT_DOUBLE_EQ(r.loss, 0.0);
  for (std::size_t i = 0; i < r.grad_rate.size(); ++i) {
    EXPECT_EQ(r.grad_rate[i], 0.0f);
  }
}

TEST(RateMseLoss, KnownValue) {
  tensor::Tensor rate({1, 2}, {0.5f, 0.5f});
  const LossResult r = rate_mse_loss(rate, {0});
  // ((0.5-1)^2 + (0.5-0)^2) / 2 = 0.25
  EXPECT_NEAR(r.loss, 0.25, 1e-9);
  // grad = 2 * diff / (N*C)
  EXPECT_FLOAT_EQ(r.grad_rate[0], -0.5f);
  EXPECT_FLOAT_EQ(r.grad_rate[1], 0.5f);
}

TEST(RateMseLoss, GradMatchesFiniteDifference) {
  tensor::Tensor rate({2, 4}, {0.1f, 0.7f, 0.2f, 0.0f,
                               0.9f, 0.3f, 0.3f, 0.5f});
  const std::vector<int> labels = {1, 0};
  const LossResult r = rate_mse_loss(rate, labels);
  const double eps = 1e-4;
  for (std::size_t i = 0; i < rate.size(); ++i) {
    tensor::Tensor plus = rate;
    plus[i] += static_cast<float>(eps);
    tensor::Tensor minus = rate;
    minus[i] -= static_cast<float>(eps);
    const double num = (rate_mse_loss(plus, labels).loss -
                        rate_mse_loss(minus, labels).loss) /
                       (2 * eps);
    EXPECT_NEAR(r.grad_rate[i], num, 1e-4);
  }
}

TEST(RateMseLoss, Validation) {
  tensor::Tensor rate({2, 3});
  EXPECT_THROW(rate_mse_loss(rate, {0}), std::invalid_argument);
  EXPECT_THROW(rate_mse_loss(rate, {0, 3}), std::invalid_argument);
  EXPECT_THROW(rate_mse_loss(rate, {0, -1}), std::invalid_argument);
  EXPECT_THROW(rate_mse_loss(tensor::Tensor({6}), {0}),
               std::invalid_argument);
}

Param make_param(float value, float grad) {
  Param p("p", tensor::Tensor({1}, value));
  p.grad[0] = grad;
  return p;
}

TEST(Adam, FirstStepIsLrSizedSignedStep) {
  Adam opt(0.01);
  Param p = make_param(1.0f, 0.5f);
  opt.step({&p});
  // After bias correction, the first Adam step is ~lr * sign(grad).
  EXPECT_NEAR(p.value[0], 1.0f - 0.01f, 1e-4f);
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize (x - 3)^2 by feeding grad = 2(x-3).
  Adam opt(0.05);
  Param p = make_param(0.0f, 0.0f);
  for (int i = 0; i < 500; ++i) {
    p.zero_grad();
    p.grad[0] = 2.0f * (p.value[0] - 3.0f);
    opt.step({&p});
  }
  EXPECT_NEAR(p.value[0], 3.0f, 0.05f);
}

TEST(Adam, StatePerParameter) {
  Adam opt(0.01);
  Param a = make_param(0.0f, 1.0f);
  Param b = make_param(0.0f, -1.0f);
  opt.step({&a, &b});
  EXPECT_LT(a.value[0], 0.0f);
  EXPECT_GT(b.value[0], 0.0f);
}

TEST(Optimizer, LrMutable) {
  Adam opt(0.01);
  EXPECT_DOUBLE_EQ(opt.lr(), 0.01);
  opt.set_lr(0.1);
  EXPECT_DOUBLE_EQ(opt.lr(), 0.1);
}

}  // namespace
}  // namespace falvolt::snn
