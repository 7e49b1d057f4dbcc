#include "snn/optimizer.h"

#include <cmath>
#include <stdexcept>

namespace falvolt::snn {

Adam::Adam(double lr, double beta1, double beta2, double eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  if (lr <= 0.0) throw std::invalid_argument("Adam: lr must be > 0");
}

void Adam::step(const std::vector<Param*>& params) {
  for (Param* p : params) {
    if (!p->trainable) continue;
    auto it = state_.find(p);
    if (it == state_.end()) {
      State s;
      s.m = tensor::Tensor(p->value.shape());
      s.v = tensor::Tensor(p->value.shape());
      it = state_.emplace(p, std::move(s)).first;
    }
    State& s = it->second;
    ++s.t;
    const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(s.t));
    const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(s.t));
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      const double g = p->grad[i];
      s.m[i] = static_cast<float>(beta1_ * s.m[i] + (1.0 - beta1_) * g);
      s.v[i] = static_cast<float>(beta2_ * s.v[i] + (1.0 - beta2_) * g * g);
      const double mhat = s.m[i] / bc1;
      const double vhat = s.v[i] / bc2;
      p->value[i] -=
          static_cast<float>(lr_ * mhat / (std::sqrt(vhat) + eps_));
    }
  }
}

}  // namespace falvolt::snn
