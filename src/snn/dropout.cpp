#include "snn/dropout.h"

#include <stdexcept>

namespace falvolt::snn {

Dropout::Dropout(std::string name, float p, std::uint64_t seed)
    : Layer(std::move(name)), p_(p), rng_(seed) {
  if (p < 0.0f || p >= 1.0f) {
    throw std::invalid_argument("Dropout: p must be in [0, 1)");
  }
}

void Dropout::reset_state() { mask_ = tensor::Tensor(); }

tensor::Tensor Dropout::forward(const tensor::Tensor& x, int t, Mode mode) {
  if (mode == Mode::kEval || p_ == 0.0f) {
    train_mode_ = false;
    return x;
  }
  train_mode_ = true;
  if (t == 0 || mask_.empty()) {
    mask_ = tensor::Tensor(x.shape());
    const float scale = 1.0f / (1.0f - p_);
    for (auto& m : mask_) m = rng_.bernoulli(p_) ? 0.0f : scale;
  }
  if (mask_.shape() != x.shape()) {
    throw std::invalid_argument("Dropout: input shape changed mid-sequence");
  }
  tensor::Tensor out = tensor::Tensor::uninitialized(x.shape());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] * mask_[i];
  return out;
}

tensor::Tensor Dropout::backward(const tensor::Tensor& grad_out, int t) {
  (void)t;
  if (!train_mode_) return grad_out;
  if (mask_.empty() || mask_.shape() != grad_out.shape()) {
    throw std::logic_error("Dropout::backward without matching forward");
  }
  tensor::Tensor grad_in = tensor::Tensor::uninitialized(grad_out.shape());
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    grad_in[i] = grad_out[i] * mask_[i];
  }
  return grad_in;
}

}  // namespace falvolt::snn
