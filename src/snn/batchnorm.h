#pragma once
// Per-channel batch normalization over [N, C, H, W], applied independently
// at each time step (statistics pooled over N*H*W of that step, running
// statistics shared across steps) — the standard arrangement for
// BPTT-trained convolutional SNNs.
//
// The train-mode statistics and the backward's sum(dy) and sum(dy * x_hat)
// are `double` sums. Four channels' sums run side by side, one per vector
// lane, and each channel adds its own elements in (sample, pixel) order,
// so every sum has the bits of a plain loop over that channel. The
// normalise and dx passes keep the plain loops' contractions
// (compute::madd, compute::nmadd).

#include <vector>

#include "snn/layer.h"

namespace falvolt::snn {

class BatchNorm2d final : public Layer {
 public:
  BatchNorm2d(std::string name, int channels, float momentum = 0.1f,
              float eps = 1e-5f);

  tensor::Tensor forward(const tensor::Tensor& x, int t, Mode mode) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out, int t) override;
  void reset_state() override;
  std::vector<Param*> params() override;

  int channels() const { return channels_; }
  const tensor::Tensor& running_mean() const { return running_mean_.value; }
  const tensor::Tensor& running_var() const { return running_var_.value; }

 private:
  struct StepCache {
    tensor::Tensor x_hat;       // normalized input
    std::vector<float> inv_std;  // per channel
  };

  int channels_;
  float momentum_;
  float eps_;
  Param gamma_;  // scale [C]
  Param beta_;   // shift [C]
  // Running statistics are exposed as non-trainable Params so snapshots
  // and on-disk caches of a trained model round-trip them.
  Param running_mean_;  // [C]
  Param running_var_;   // [C]
  // Each training time step's cache (the first `steps_` are live). They
  // outlive reset_state() so a same-shaped batch reuses their storage.
  std::vector<StepCache> cache_;
  int steps_ = 0;
};

}  // namespace falvolt::snn
