#pragma once
// 2D convolution layer: a GEMM over the im2col rows of its input, which
// no pass builds.
//
// The GEMM weight matrix is [K x M] with K = Cin*kh*kw and M = Cout; this
// is exactly the matrix that gets laid onto the systolic array, so the
// fault/prune machinery addresses conv weights through `MatmulLayer`.
// The forward pass is GemmEngine::conv: the float engine's direct kernel
// (tensor::conv_forward), or the systolic engine's walk over each
// sample's zero-bordered copy. Training keeps each step's input, and the
// backward pass reads its windows in place too (tensor::conv_weight_grad,
// tensor::conv_input_grad8). At Cout = 8 the backward repacks the output
// gradient into pixel rows with 8 x 8 transposes and sums the bias as one
// 8-lane chain in row order; backward_params() skips the input gradient.

#include <vector>

#include "common/rng.h"
#include "snn/layer.h"
#include "tensor/im2col.h"

namespace falvolt::snn {

/// Convolution over [N, Cin, H, W] inputs producing [N, Cout, OH, OW].
class Conv2d final : public Layer, public MatmulLayer {
 public:
  /// Stride-1 convolution with explicit padding (pad = kernel/2 keeps the
  /// spatial size for odd kernels).
  Conv2d(std::string name, int in_channels, int out_channels, int kernel,
         int pad, common::Rng& init_rng, bool bias = true);

  tensor::Tensor forward(const tensor::Tensor& x, int t, Mode mode) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out, int t) override;
  /// The weight and bias gradients of backward(), without the input
  /// gradient.
  void backward_params(const tensor::Tensor& grad_out, int t) override;
  void reset_state() override;
  std::vector<Param*> params() override;

  // MatmulLayer
  Param& weight_param() override { return weight_; }
  int gemm_k() const override { return in_channels_ * kernel_ * kernel_; }
  int gemm_m() const override { return out_channels_; }
  void set_gemm_engine(GemmEngine* engine) override { engine_ = engine; }
  const std::string& matmul_name() const override { return Layer::name(); }

  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }
  int kernel() const { return kernel_; }

 private:
  void bind_geometry(const tensor::Tensor& x);
  // backward() and backward_params(): the input gradient is computed only
  // when `grad_in` is not null.
  void backward_impl(const tensor::Tensor& grad_out, int t,
                     tensor::Tensor* grad_in);

  int in_channels_;
  int out_channels_;
  int kernel_;
  int pad_;
  bool has_bias_;
  Param weight_;  // [K x Cout]
  Param bias_;    // [Cout]
  tensor::ConvGeometry geometry_;
  bool geometry_bound_ = false;
  GemmEngine* engine_ = nullptr;  // non-owning; nullptr -> float engine
  // Each training time step's input, for the weight gradient (the first
  // `steps_` are live). They outlive reset_state() so a same-shaped batch
  // reuses their storage.
  std::vector<tensor::Tensor> inputs_;
  int steps_ = 0;
  // backward()'s output gradient as pixel rows [N * OH * OW, Cout]; it
  // outlives the call so a same-shaped step reuses its storage.
  tensor::Tensor grad_rows_;
};

}  // namespace falvolt::snn
