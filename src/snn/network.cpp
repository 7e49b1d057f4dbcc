#include "snn/network.h"

#include <stdexcept>

#include "tensor/tensor_ops.h"

namespace falvolt::snn {

tensor::Tensor Network::forward(const tensor::Tensor& x, int t, Mode mode) {
  if (layers_.empty()) return x;
  tensor::Tensor cur = layers_.front()->forward(x, t, mode);
  for (auto it = layers_.begin() + 1; it != layers_.end(); ++it) {
    cur = (*it)->forward(cur, t, mode);
  }
  return cur;
}

tensor::Tensor Network::rate_forward(
    const std::vector<tensor::Tensor>& steps) {
  reset_state();
  tensor::Tensor sum;
  for (std::size_t t = 0; t < steps.size(); ++t) {
    tensor::Tensor out =
        forward(steps[t], static_cast<int>(t), Mode::kEval);
    if (sum.empty()) {
      sum = std::move(out);
    } else {
      tensor::add_inplace(sum, out);
    }
  }
  if (!steps.empty()) {
    tensor::scale_inplace(sum, 1.0f / static_cast<float>(steps.size()));
  }
  return sum;
}

void Network::backward(const tensor::Tensor& grad_out, int t) {
  if (layers_.empty()) return;
  if (layers_.size() == 1) {
    layers_.front()->backward_params(grad_out, t);
    return;
  }
  auto it = layers_.rbegin();
  tensor::Tensor cur = (*it)->backward(grad_out, t);
  for (++it; it + 1 != layers_.rend(); ++it) cur = (*it)->backward(cur, t);
  layers_.front()->backward_params(cur, t);
}

void Network::reset_state() {
  for (auto& l : layers_) l->reset_state();
}

std::vector<Param*> Network::params() {
  std::vector<Param*> out;
  for (auto& l : layers_) {
    for (Param* p : l->params()) out.push_back(p);
  }
  return out;
}

void Network::zero_grad() {
  for (Param* p : params()) p->zero_grad();
}

std::vector<Plif*> Network::spiking_layers() {
  std::vector<Plif*> out;
  for (auto& l : layers_) {
    if (auto* p = dynamic_cast<Plif*>(l.get())) out.push_back(p);
  }
  return out;
}

std::vector<Plif*> Network::hidden_spiking_layers() {
  std::vector<Plif*> out;
  for (auto& l : layers_) {
    auto* p = dynamic_cast<Plif*>(l.get());
    if (!p) continue;
    // Encoder PLIF layers are named with an "SEnc" prefix by the model zoo.
    if (p->name().rfind("SEnc", 0) == 0) continue;
    out.push_back(p);
  }
  return out;
}

std::vector<MatmulLayer*> Network::matmul_layers() {
  std::vector<MatmulLayer*> out;
  for (auto& l : layers_) {
    if (auto* m = dynamic_cast<MatmulLayer*>(l.get())) out.push_back(m);
  }
  return out;
}

void Network::set_gemm_engine(GemmEngine* engine) {
  for (MatmulLayer* m : matmul_layers()) m->set_gemm_engine(engine);
}

void Network::set_train_vth(bool enabled) {
  for (Plif* p : hidden_spiking_layers()) p->set_train_vth(enabled);
}

std::vector<tensor::Tensor> Network::snapshot_params() {
  std::vector<tensor::Tensor> snap;
  for (Param* p : params()) snap.push_back(p->value);
  return snap;
}

void Network::restore_params(const std::vector<tensor::Tensor>& snap) {
  auto ps = params();
  if (snap.size() != ps.size()) {
    throw std::invalid_argument("Network::restore_params: size mismatch");
  }
  for (std::size_t i = 0; i < ps.size(); ++i) {
    if (ps[i]->value.shape() != snap[i].shape()) {
      throw std::invalid_argument("Network::restore_params: shape mismatch");
    }
    ps[i]->value = snap[i];
  }
}

std::size_t Network::num_trainable_scalars() {
  std::size_t n = 0;
  for (Param* p : params()) {
    if (p->trainable) n += p->size();
  }
  return n;
}

}  // namespace falvolt::snn
