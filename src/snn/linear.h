#pragma once
// Fully connected layer over [N, F] inputs; weight matrix [F x M] is the
// GEMM operand mapped onto the systolic array.

#include <vector>

#include "common/rng.h"
#include "snn/layer.h"

namespace falvolt::snn {

class Linear final : public Layer, public MatmulLayer {
 public:
  Linear(std::string name, int in_features, int out_features,
         common::Rng& init_rng, bool bias = true);

  tensor::Tensor forward(const tensor::Tensor& x, int t, Mode mode) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out, int t) override;
  void reset_state() override;
  std::vector<Param*> params() override;

  // MatmulLayer
  Param& weight_param() override { return weight_; }
  int gemm_k() const override { return in_features_; }
  int gemm_m() const override { return out_features_; }
  void set_gemm_engine(GemmEngine* engine) override { engine_ = engine; }
  const std::string& matmul_name() const override { return Layer::name(); }

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }

 private:
  int in_features_;
  int out_features_;
  bool has_bias_;
  Param weight_;  // [F x M]
  Param bias_;    // [M]
  GemmEngine* engine_ = nullptr;
  // Each training time step's input [N, F], for the weight gradient (the
  // first `steps_` are live). They outlive reset_state() so a
  // same-shaped batch reuses their storage.
  std::vector<tensor::Tensor> inputs_;
  int steps_ = 0;
};

}  // namespace falvolt::snn
