#pragma once
// Shared helpers for the test suite: random tensor filling and
// finite-difference gradient checking of layers trained through BPTT.

#include <cmath>
#include <cstddef>
#include <cstring>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "snn/layer.h"
#include "tensor/tensor.h"

namespace falvolt::testutil {

inline void fill_random(tensor::Tensor& t, common::Rng& rng, double lo = -1.0,
                        double hi = 1.0) {
  for (auto& v : t) v = static_cast<float>(rng.uniform(lo, hi));
}

inline tensor::Tensor random_tensor(tensor::Shape shape, common::Rng& rng,
                                    double lo = -1.0, double hi = 1.0) {
  tensor::Tensor t(std::move(shape));
  fill_random(t, rng, lo, hi);
  return t;
}

/// Index of the first of got[0..n) whose bits differ from want's, or n.
/// A NaN matches any NaN: where two NaNs meet in one operation, IEEE 754
/// leaves open which one's sign and payload the result carries, x86
/// returns its first source operand's, and which operand of a commutative
/// operation comes first is the compiler's choice, in a kernel and in its
/// oracle alike. Every other value must match bit for bit (-0 included).
inline std::size_t first_bit_difference(const float* got, const float* want,
                                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(got[i]) && std::isnan(want[i])) continue;
    if (std::memcmp(got + i, want + i, sizeof(float)) != 0) return i;
  }
  return n;
}

/// Scalar loss of a layer run over T time steps: sum of c[t] . y[t] where
/// y[t] is a fixed random cotangent. Returns the loss; used both for the
/// analytic backward (y[t] is the output gradient) and for finite
/// differences.
inline double sequence_loss(snn::Layer& layer,
                            const std::vector<tensor::Tensor>& inputs,
                            const std::vector<tensor::Tensor>& cotangents,
                            snn::Mode mode = snn::Mode::kTrain) {
  layer.reset_state();
  double loss = 0.0;
  for (std::size_t t = 0; t < inputs.size(); ++t) {
    const tensor::Tensor out =
        layer.forward(inputs[t], static_cast<int>(t), mode);
    for (std::size_t i = 0; i < out.size(); ++i) {
      loss += static_cast<double>(out[i]) * cotangents[t][i];
    }
  }
  return loss;
}

/// Analytic input gradients via the layer's backward pass (returns
/// d(loss)/d(input[t]) for every t). Parameter gradients accumulate into
/// the layer's Param::grad fields (zero them first).
inline std::vector<tensor::Tensor> analytic_grads(
    snn::Layer& layer, const std::vector<tensor::Tensor>& inputs,
    const std::vector<tensor::Tensor>& cotangents) {
  for (snn::Param* p : layer.params()) p->zero_grad();
  sequence_loss(layer, inputs, cotangents);
  std::vector<tensor::Tensor> grads(inputs.size());
  for (int t = static_cast<int>(inputs.size()) - 1; t >= 0; --t) {
    grads[static_cast<std::size_t>(t)] =
        layer.backward(cotangents[static_cast<std::size_t>(t)], t);
  }
  return grads;
}

/// Central finite difference of `sequence_loss` w.r.t. one scalar.
inline double numeric_grad(snn::Layer& layer,
                           std::vector<tensor::Tensor>& inputs,
                           const std::vector<tensor::Tensor>& cotangents,
                           float* scalar, double eps = 1e-3) {
  const float saved = *scalar;
  *scalar = static_cast<float>(saved + eps);
  const double plus = sequence_loss(layer, inputs, cotangents);
  *scalar = static_cast<float>(saved - eps);
  const double minus = sequence_loss(layer, inputs, cotangents);
  *scalar = saved;
  return (plus - minus) / (2.0 * eps);
}

}  // namespace falvolt::testutil
