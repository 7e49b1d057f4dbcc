#pragma once
// Gradient-descent optimizers over Param sets. State (moment estimates)
// is keyed by parameter identity, so the same optimizer object must be
// used with the same network throughout a training run.

#include <memory>
#include <unordered_map>
#include <vector>

#include "snn/param.h"

namespace falvolt::snn {

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  /// Apply one update using each param's accumulated gradient.
  /// Non-trainable params are skipped. Gradients are NOT zeroed here.
  virtual void step(const std::vector<Param*>& params) = 0;
  virtual double lr() const = 0;
  virtual void set_lr(double lr) = 0;
};

/// Adam (Kingma & Ba) with bias correction.
class Adam final : public Optimizer {
 public:
  explicit Adam(double lr, double beta1 = 0.9, double beta2 = 0.999,
                double eps = 1e-8);
  void step(const std::vector<Param*>& params) override;
  double lr() const override { return lr_; }
  void set_lr(double lr) override { lr_ = lr; }

 private:
  struct State {
    tensor::Tensor m;
    tensor::Tensor v;
    long long t = 0;
  };
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  std::unordered_map<Param*, State> state_;
};

}  // namespace falvolt::snn
