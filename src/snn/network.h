#pragma once
// Sequential SNN container.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "snn/layer.h"
#include "snn/plif.h"

namespace falvolt::snn {

/// An ordered stack of layers executed per time step.
class Network {
 public:
  Network() = default;
  explicit Network(std::string name) : name_(std::move(name)) {}

  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  const std::string& name() const { return name_; }

  /// Append a layer; returns a typed reference for further configuration.
  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  int num_layers() const { return static_cast<int>(layers_.size()); }
  Layer& layer(int i) { return *layers_.at(static_cast<std::size_t>(i)); }
  const Layer& layer(int i) const {
    return *layers_.at(static_cast<std::size_t>(i));
  }

  /// Run one time step through the whole stack.
  tensor::Tensor forward(const tensor::Tensor& x, int t, Mode mode);

  /// Batched eval mode: reset state, forward steps[t] (one [N,C,H,W]
  /// tensor per time step) for t = 0..T-1 in eval mode, and return the
  /// time-mean output — the firing-rate logits, shape [N, classes].
  /// Running one forward per time step for the WHOLE sample set lets a
  /// plugged GemmEngine resolve its per-layer plan (quantized weights +
  /// fault schedule) once per step instead of once per small chunk, and
  /// hands the row-parallel compute pool N samples of rows at a time.
  /// Per-sample outputs are independent, so the result is bit-identical
  /// to forwarding the samples in any smaller batches.
  tensor::Tensor rate_forward(const std::vector<tensor::Tensor>& steps);

  /// Backpropagate one time step through the reversed stack (call with t
  /// descending), accumulating every parameter gradient. The first layer
  /// runs Layer::backward_params: nothing reads the gradient w.r.t. the
  /// step input, so it is not computed.
  void backward(const tensor::Tensor& grad_out, int t);

  /// Reset temporal state and caches on every layer.
  void reset_state();

  /// All trainable parameters.
  std::vector<Param*> params();

  /// Zero every parameter gradient.
  void zero_grad();

  /// All spiking (PLIF) layers, in network order.
  std::vector<Plif*> spiking_layers();

  /// The PLIF layers whose threshold the paper's Fig. 6 reports — i.e.
  /// every spiking layer except the encoder's (those are the "hidden
  /// convolutional and fully connected layers").
  std::vector<Plif*> hidden_spiking_layers();

  /// All GEMM-lowered layers (Conv2d + Linear), in network order. These
  /// are the layers mapped onto the systolic array.
  std::vector<MatmulLayer*> matmul_layers();

  /// Route every matmul layer's inference GEMM through `engine`
  /// (nullptr restores the float path).
  void set_gemm_engine(GemmEngine* engine);

  /// Enable/disable threshold-voltage learning on all hidden spiking
  /// layers (FalVolt's switch).
  void set_train_vth(bool enabled);

  /// Snapshot / restore all parameter values (baseline caching).
  std::vector<tensor::Tensor> snapshot_params();
  void restore_params(const std::vector<tensor::Tensor>& snap);

  /// Total trainable scalar count.
  std::size_t num_trainable_scalars();

 private:
  std::string name_;
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace falvolt::snn
