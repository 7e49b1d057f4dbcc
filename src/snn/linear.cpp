#include "snn/linear.h"

#include <cmath>
#include <stdexcept>

#include "tensor/gemm.h"

namespace falvolt::snn {

Linear::Linear(std::string name, int in_features, int out_features,
               common::Rng& init_rng, bool bias)
    : Layer(std::move(name)),
      in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias) {
  if (in_features <= 0 || out_features <= 0) {
    throw std::invalid_argument("Linear: features must be positive");
  }
  weight_ = Param(Layer::name() + ".weight",
                  tensor::Tensor({in_features, out_features}));
  const float bound = std::sqrt(6.0f / static_cast<float>(in_features));
  for (auto& w : weight_.value) {
    w = static_cast<float>(init_rng.uniform(-bound, bound));
  }
  bias_ = Param(Layer::name() + ".bias", tensor::Tensor({out_features}));
  bias_.trainable = has_bias_;
}

void Linear::reset_state() { steps_ = 0; }

tensor::Tensor Linear::forward(const tensor::Tensor& x, int t, Mode mode) {
  if (x.rank() != 2 || x.dim(1) != in_features_) {
    throw std::invalid_argument("Linear: expected [N, " +
                                std::to_string(in_features_) + "], got " +
                                tensor::shape_str(x.shape()));
  }
  if (mode == Mode::kTrain) {
    if (t != steps_) {
      throw std::logic_error("Linear::forward: cache out of sync");
    }
    if (inputs_.size() <= static_cast<std::size_t>(t)) inputs_.emplace_back();
    inputs_[static_cast<std::size_t>(t)] = x;
    ++steps_;
  }
  const int n = x.dim(0);
  // GemmEngine::run writes every output element.
  tensor::Tensor out = tensor::Tensor::uninitialized({n, out_features_});
  GemmEngine& eng = engine_ ? *engine_ : FloatGemmEngine::instance();
  eng.run(x.data(), weight_.value.data(), out.data(), n, in_features_,
          out_features_, Layer::name());
  if (has_bias_) {
    for (int s = 0; s < n; ++s) {
      float* row = out.data() + static_cast<std::size_t>(s) * out_features_;
      for (int c = 0; c < out_features_; ++c) {
        row[c] += bias_.value[static_cast<std::size_t>(c)];
      }
    }
  }
  return out;
}

tensor::Tensor Linear::backward(const tensor::Tensor& grad_out, int t) {
  if (t < 0 || t >= steps_) {
    throw std::logic_error("Linear::backward: no cache for this time step");
  }
  const tensor::Tensor& x = inputs_[static_cast<std::size_t>(t)];
  const int n = x.dim(0);
  if (grad_out.rank() != 2 || grad_out.dim(0) != n ||
      grad_out.dim(1) != out_features_) {
    throw std::invalid_argument("Linear::backward: gradient shape mismatch");
  }
  if (weight_.trainable) {
    tensor::gemm_at_b(x.data(), grad_out.data(), weight_.grad.data(), n,
                      in_features_, out_features_, /*accumulate=*/true);
  }
  if (has_bias_ && bias_.trainable) {
    for (int s = 0; s < n; ++s) {
      const float* row =
          grad_out.data() + static_cast<std::size_t>(s) * out_features_;
      for (int c = 0; c < out_features_; ++c) {
        bias_.grad[static_cast<std::size_t>(c)] += row[c];
      }
    }
  }
  tensor::Tensor grad_in = tensor::Tensor::uninitialized({n, in_features_});
  tensor::gemm_a_bt(grad_out.data(), weight_.value.data(), grad_in.data(), n,
                    out_features_, in_features_);
  return grad_in;
}

std::vector<Param*> Linear::params() {
  std::vector<Param*> ps{&weight_};
  if (has_bias_) ps.push_back(&bias_);
  return ps;
}

}  // namespace falvolt::snn
