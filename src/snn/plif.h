#pragma once
// Parametric leaky-integrate-and-fire (PLIF) spiking layer (Fang et al.,
// ICCV 2021), the neuron model used by the paper.
//
// Dynamics (hard reset, V_rest = 0, k = sigmoid(w) ~ 1/tau learnable per
// layer):
//     H_t = V_{t-1} + k * (X_t - V_{t-1})        (charge)
//     z_t = H_t / V_th - 1                       (paper Eq. 1, r = v/V)
//     S_t = [z_t > 0]                            (fire)
//     V_t = H_t * (1 - S_t)                      (hard reset)
//
// Backward uses the paper's triangle surrogate (Eq. 2) for dS/dz, and —
// when V_th is marked trainable (FalVolt retraining) — accumulates the
// threshold-voltage gradient dz/dV_th = -H_t / V_th^2 (Eq. 4). The reset
// branch is detached in backward: V_t = H_t (1 - S_t) passes gradient to
// H_t only through (1 - S_t), never through S_t.
//
// Both passes run eight neurons at a time with the scalar loops'
// contractions pinned (compute/simd.h). The V_th and tau gradients are
// `double` sums whose terms are built on vectors and added one by one,
// in element order, into locals: the same bits as the scalar loop.

#include <vector>

#include "snn/layer.h"
#include "snn/surrogate.h"

namespace falvolt::snn {

/// Configuration of a PLIF layer.
struct PlifConfig {
  float initial_tau = 2.0f;   ///< initial membrane time constant
  float initial_vth = 1.0f;   ///< threshold voltage (the paper's V)
  bool train_tau = true;      ///< learn k = 1/tau (the "P" in PLIF)
  bool train_vth = false;     ///< learn V_th (enabled by FalVolt only)
  Surrogate surrogate;        ///< dS/dz approximation
  float vth_min = 0.05f;      ///< clamp range for learned V_th
  float vth_max = 2.0f;
};

/// Spiking PLIF layer; elementwise over any input shape.
class Plif final : public Layer {
 public:
  Plif(std::string name, const PlifConfig& cfg = {});

  tensor::Tensor forward(const tensor::Tensor& x, int t, Mode mode) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out, int t) override;
  void reset_state() override;
  std::vector<Param*> params() override;
  bool is_spiking() const override { return true; }

  /// Current threshold voltage.
  float vth() const { return vth_.value[0]; }
  /// Overwrite the threshold voltage (clamped to the configured range).
  void set_vth(float v);
  /// Enable/disable V_th learning (FalVolt toggles this for retraining).
  void set_train_vth(bool enabled) { vth_.trainable = enabled; }
  bool train_vth() const { return vth_.trainable; }

  /// Membrane decay factor k = sigmoid(w) in (0, 1).
  float k() const;
  /// Equivalent time constant tau = 1/k.
  float tau() const { return 1.0f / k(); }

  const Surrogate& surrogate() const { return cfg_.surrogate; }
  /// Swap the surrogate used in backward (ablation studies).
  void set_surrogate(const Surrogate& s) { cfg_.surrogate = s; }

  /// Clamp V_th into [vth_min, vth_max]; called by optimizer step hooks.
  void clamp_vth();

 private:
  PlifConfig cfg_;
  Param vth_;    // scalar [1]
  Param w_tau_;  // scalar [1]; k = sigmoid(w_tau)
  tensor::Tensor v_;  // membrane potential V_t
  // Training cache: H_t (pre-reset) and the V_th step t fired at, for the
  // first `steps_` steps. Backward recomputes S_t = [H_t > V_th] and
  // V_{t-1} = H_{t-1} (1 - S_{t-1}) from them. The buffers outlive
  // reset_state() so a same-shaped batch reuses them.
  std::vector<tensor::Tensor> h_hist_;
  std::vector<float> vth_hist_;
  int steps_ = 0;
  tensor::Tensor carry_;  // dL/dV_t flowing from step t+1 in backward
  bool carry_live_ = false;  // set by the sequence's first backward step
  int last_forward_t_ = -1;
};

}  // namespace falvolt::snn
