#pragma once
// Layer interface for the BPTT-trained SNN.
//
// Execution model: the trainer resets all layer state, then runs
// `forward(x, t)` for t = 0..T-1 through the whole stack, accumulates
// output spikes, computes the loss on the mean firing rate, and finally
// runs `backward(grad, t)` for t = T-1..0 through the reversed stack.
// Layers cache whatever they need per time step during forward; stateful
// (spiking) layers also carry gradients backward through their membrane
// potential between consecutive backward(t) calls.

#include <memory>
#include <string>
#include <vector>

#include "snn/param.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"

namespace falvolt::snn {

/// Train vs eval mode (affects dropout, batch-norm statistics).
enum class Mode { kTrain, kEval };

/// Pluggable GEMM backend for the weight layers (Conv2d, Linear).
///
/// The float engine is the training path; the systolic module provides a
/// fixed-point engine that routes the same GEMM through the fault-injected
/// accelerator model. `layer_tag` identifies the layer so an engine can
/// keep per-layer state (all layers share the same physical PE array, so
/// the default engine ignores it).
///
/// Both entry points must write every output element: the layers pass
/// storage from tensor::Tensor::uninitialized, which may hold an earlier
/// tensor's values.
class GemmEngine {
 public:
  virtual ~GemmEngine() = default;
  /// C[m x n] = A[m x k] * W[k x n], row-major; C's prior contents are
  /// never read.
  virtual void run(const float* a, const float* w, float* c, int m, int k,
                   int n, const std::string& layer_tag) = 0;

  /// Convolution of `n` (C, H, W) samples `x` with the GEMM weights
  /// w[patch_size x cout] into (cout, out_h, out_w) samples `out`, each
  /// element the GEMM's output plus bias[c] (+ 0.0f when `bias` is null).
  /// The default lowers it: im2col, run() on the [n * out_pixels x
  /// patch_size] matrix, then a repack to NCHW. An engine that overrides
  /// it must give the same bits.
  virtual void conv(const float* x, int n, const tensor::ConvGeometry& g,
                    const float* w, int cout, const float* bias, float* out,
                    const std::string& layer_tag);
};

/// Default float GEMM (delegates to tensor::gemm, i.e. the compute
/// backend's auto-dispatched blocked/parallel kernels).
class FloatGemmEngine final : public GemmEngine {
 public:
  void run(const float* a, const float* w, float* c, int m, int k, int n,
           const std::string& layer_tag) override;
  /// tensor::conv_forward (the blocked GEMM's bits with no im2col
  /// matrix) up to one K panel (patch_size <= compute::kKc), else the
  /// lowering.
  void conv(const float* x, int n, const tensor::ConvGeometry& g,
            const float* w, int cout, const float* bias, float* out,
            const std::string& layer_tag) override;
  /// Process-wide shared instance.
  static FloatGemmEngine& instance();
};

/// Base layer.
class Layer {
 public:
  explicit Layer(std::string name) : name_(std::move(name)) {}
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  const std::string& name() const { return name_; }

  /// Compute the output at time step t. Must be called with t increasing
  /// from 0 after reset_state().
  virtual tensor::Tensor forward(const tensor::Tensor& x, int t,
                                 Mode mode) = 0;

  /// Propagate the loss gradient for time step t; must be called with t
  /// decreasing from T-1. Accumulates into parameter grads.
  virtual tensor::Tensor backward(const tensor::Tensor& grad_out, int t) = 0;

  /// backward() for a caller that does not read the input gradient (a
  /// network's first layer): accumulates the same parameter gradients,
  /// bit for bit. The default runs backward() and drops its result; a
  /// layer that can skip the input gradient overrides it.
  virtual void backward_params(const tensor::Tensor& grad_out, int t) {
    backward(grad_out, t);
  }

  /// Clear temporal state and per-step caches (start of a new sequence).
  virtual void reset_state() {}

  /// Trainable parameters (empty by default).
  virtual std::vector<Param*> params() { return {}; }

  /// True for layers that emit spikes (PLIF).
  virtual bool is_spiking() const { return false; }

 private:
  std::string name_;
};

/// Interface implemented by layers whose forward pass is one GEMM (Linear,
/// and Conv2d's product over the im2col rows it reads in place). These
/// are the layers mapped onto the systolic array: their weight matrix is
/// [K x M] with element (k, m) living on PE(k mod N, m mod N).
class MatmulLayer {
 public:
  virtual ~MatmulLayer() = default;
  /// The [K x M] GEMM weight matrix.
  virtual Param& weight_param() = 0;
  virtual int gemm_k() const = 0;
  virtual int gemm_m() const = 0;
  /// Route this layer's inference GEMM through `engine` (non-owning;
  /// nullptr restores the default float engine).
  virtual void set_gemm_engine(GemmEngine* engine) = 0;
  /// Name of the owning layer (for fault-report tables).
  virtual const std::string& matmul_name() const = 0;
};

}  // namespace falvolt::snn
