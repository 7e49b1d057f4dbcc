#include "snn/plif.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "compute/simd.h"

namespace falvolt::snn {

namespace {

using compute::F32x8;
using compute::M32x8;

float sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

// Both passes run eight neurons at a time; a short last block runs the
// same lanes on zero-padded copies.
constexpr std::size_t kLanes = 8;

// One charge/fire/reset step of eight neurons: H = V + k (X - V), as the
// scalar loop's contraction fma(k, X - V, V); S = [H > V_th]; V = H or 0.
// `h` (the training cache) may be null.
void forward8(const float* x, float* v, float* s, float* h, F32x8 k,
              F32x8 vth) {
  const F32x8 zero = compute::splat_f32x8(0.0f);
  const F32x8 vv = compute::load_f32x8(v);
  const F32x8 hv = compute::madd_f32x8(
      k, compute::sub_f32x8(compute::load_f32x8(x), vv), vv);
  const M32x8 fire = compute::gt_f32x8(hv, vth);
  compute::store_f32x8(
      s, compute::select_f32x8(fire, compute::splat_f32x8(1.0f), zero));
  compute::store_f32x8(v, compute::select_f32x8(fire, zero, hv));
  if (h != nullptr) compute::store_f32x8(h, hv);
}

// Surrogate::grad on eight lanes, with the same operations per lane. The
// sigmoid (ablation only) calls the scalar function lane by lane.
template <SurrogateKind Kind>
F32x8 surrogate_grad8(F32x8 z, const Surrogate& sg) {
  const F32x8 zero = compute::splat_f32x8(0.0f);
  if constexpr (Kind == SurrogateKind::kTriangle) {
    const F32x8 t = compute::sub_f32x8(compute::splat_f32x8(1.0f),
                                       compute::abs_f32x8(z));
    return compute::select_f32x8(
        compute::gt_f32x8(t, zero),
        compute::mul_f32x8(compute::splat_f32x8(sg.gamma), t), zero);
  } else if constexpr (Kind == SurrogateKind::kRectangle) {
    return compute::select_f32x8(
        compute::gt_f32x8(compute::splat_f32x8(0.5f), compute::abs_f32x8(z)),
        compute::splat_f32x8(sg.gamma), zero);
  } else {
    float lanes[kLanes];
    compute::store_f32x8(lanes, z);
    for (float& l : lanes) l = sg.grad(l);
    return compute::load_f32x8(lanes);
  }
}

// What one backward step needs besides the per-neuron arrays.
struct BackwardStep {
  const Surrogate* surrogate;
  float k;
  float inv_vth;   // 1 / V_th now
  float vth;       // V_th step t fired at
  float vth_prev;  // V_th step t - 1 fired at
  bool has_prev;   // t > 0: V_{t-1} = H_{t-1} (1 - S_{t-1}); else 0
  bool want_dvth;
  bool want_dk;
};

// The two double sums of one backward step.
struct StepSums {
  double dvth = 0.0;
  double dk = 0.0;
};

// Backward through eight neurons of step t. The float math runs on the
// lanes with the contractions GCC makes in the scalar loop:
//   z  = fma(H, 1/V, -1)
//   dH = fma(g * sg, 1/V, carry * (1 - S))
// Each double sum whose parameter trains gets its terms for all lanes on
// vectors (a float converts to double exactly, and so does the product
// of two floats), then takes the `lanes` live terms serially, in element
// order:
//   dV = fma(double(g) * double(sg), double(-H / V / V), dV)
//   dk = dk + double(dH) * double(H - V_{t-1}) / double(k)
template <SurrogateKind Kind>
StepSums backward8(const float* h, const float* hp, const float* g,
                   float* carry, float* grad_in, std::size_t lanes,
                   const BackwardStep& st, StepSums sums) {
  const F32x8 zero = compute::splat_f32x8(0.0f);
  const F32x8 one = compute::splat_f32x8(1.0f);
  const F32x8 inv_vth = compute::splat_f32x8(st.inv_vth);
  const F32x8 hv = compute::load_f32x8(h);
  const F32x8 gv = compute::load_f32x8(g);
  const F32x8 z =
      compute::madd_f32x8(hv, inv_vth, compute::splat_f32x8(-1.0f));
  const F32x8 sg = surrogate_grad8<Kind>(z, *st.surrogate);
  const F32x8 keep = compute::select_f32x8(
      compute::gt_f32x8(hv, compute::splat_f32x8(st.vth)), zero, one);
  const F32x8 dh = compute::madd_f32x8(
      compute::mul_f32x8(gv, sg), inv_vth,
      compute::mul_f32x8(compute::load_f32x8(carry), keep));
  compute::store_f32x8(grad_in,
                       compute::mul_f32x8(dh, compute::splat_f32x8(st.k)));
  compute::store_f32x8(
      carry, compute::mul_f32x8(dh, compute::splat_f32x8(1.0f - st.k)));
  double dvth_a[kLanes] = {}, dvth_b[kLanes] = {}, dk_term[kLanes] = {};
  if (st.want_dvth) {
    const F32x8 b = compute::mul_f32x8(
        compute::mul_f32x8(compute::neg_f32x8(hv), inv_vth), inv_vth);
    compute::store_f64x4(dvth_a,
                         compute::mul_f64x4(compute::widen_lo_f32x8(gv),
                                            compute::widen_lo_f32x8(sg)));
    compute::store_f64x4(dvth_a + 4,
                         compute::mul_f64x4(compute::widen_hi_f32x8(gv),
                                            compute::widen_hi_f32x8(sg)));
    compute::store_f64x4(dvth_b, compute::widen_lo_f32x8(b));
    compute::store_f64x4(dvth_b + 4, compute::widen_hi_f32x8(b));
  }
  if (st.want_dk) {
    F32x8 vprev = zero;
    if (st.has_prev) {
      const F32x8 hpv = compute::load_f32x8(hp);
      vprev = compute::select_f32x8(
          compute::gt_f32x8(hpv, compute::splat_f32x8(st.vth_prev)), zero,
          hpv);
    }
    const compute::F64x4 k = compute::splat_f64x4(st.k);
    const F32x8 d = compute::sub_f32x8(hv, vprev);
    compute::store_f64x4(
        dk_term, compute::div_f64x4(
                     compute::mul_f64x4(compute::widen_lo_f32x8(dh),
                                        compute::widen_lo_f32x8(d)),
                     k));
    compute::store_f64x4(
        dk_term + 4, compute::div_f64x4(
                         compute::mul_f64x4(compute::widen_hi_f32x8(dh),
                                            compute::widen_hi_f32x8(d)),
                         k));
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    if (st.want_dvth) {
      sums.dvth = compute::madd(dvth_a[l], dvth_b[l], sums.dvth);
    }
    if (st.want_dk) sums.dk += dk_term[l];
  }
  return sums;
}

template <SurrogateKind Kind>
StepSums backward_step(const float* h, const float* hp, const float* g,
                       float* carry, float* grad_in, std::size_t n,
                       const BackwardStep& st) {
  StepSums sums;
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    sums = backward8<Kind>(h + i, st.has_prev ? hp + i : nullptr, g + i,
                           carry + i, grad_in + i, kLanes, st, sums);
  }
  if (i == n) return sums;
  const std::size_t r = n - i;
  float hb[kLanes] = {}, hpb[kLanes] = {}, gb[kLanes] = {};
  float cb[kLanes] = {}, gib[kLanes];
  std::copy_n(h + i, r, hb);
  if (st.has_prev) std::copy_n(hp + i, r, hpb);
  std::copy_n(g + i, r, gb);
  std::copy_n(carry + i, r, cb);
  sums = backward8<Kind>(hb, hpb, gb, cb, gib, r, st, sums);
  std::copy_n(cb, r, carry + i);
  std::copy_n(gib, r, grad_in + i);
  return sums;
}

}  // namespace

Plif::Plif(std::string name, const PlifConfig& cfg)
    : Layer(std::move(name)), cfg_(cfg) {
  if (cfg.initial_tau <= 1.0f) {
    throw std::invalid_argument("Plif: initial_tau must be > 1");
  }
  if (cfg.initial_vth <= 0.0f) {
    throw std::invalid_argument("Plif: initial_vth must be > 0");
  }
  vth_ = Param(Layer::name() + ".vth", tensor::Tensor({1}, cfg.initial_vth));
  vth_.trainable = cfg.train_vth;
  // k = sigmoid(w) = 1/tau  =>  w = logit(1/tau)
  const float k0 = 1.0f / cfg.initial_tau;
  const float w0 = std::log(k0 / (1.0f - k0));
  w_tau_ = Param(Layer::name() + ".w_tau", tensor::Tensor({1}, w0));
  w_tau_.trainable = cfg.train_tau;
}

float Plif::k() const { return sigmoid(w_tau_.value[0]); }

void Plif::set_vth(float v) {
  vth_.value[0] = std::clamp(v, cfg_.vth_min, cfg_.vth_max);
}

void Plif::clamp_vth() { set_vth(vth_.value[0]); }

void Plif::reset_state() {
  steps_ = 0;
  carry_live_ = false;
  last_forward_t_ = -1;
}

tensor::Tensor Plif::forward(const tensor::Tensor& x, int t, Mode mode) {
  if (t != last_forward_t_ + 1) {
    throw std::logic_error("Plif::forward: time steps must be consecutive "
                           "(did you forget reset_state()?)");
  }
  if (t == 0) {
    if (v_.shape() != x.shape()) {
      v_ = tensor::Tensor(x.shape());
    } else {
      v_.zero();
    }
  } else if (v_.shape() != x.shape()) {
    throw std::invalid_argument("Plif::forward: input shape changed mid-sequence");
  }
  last_forward_t_ = t;

  const float vth = vth_.value[0];
  float* h = nullptr;
  if (mode == Mode::kTrain) {
    if (steps_ != t) {
      throw std::logic_error("Plif::forward: cache out of sync");
    }
    if (h_hist_.size() <= static_cast<std::size_t>(t)) {
      h_hist_.emplace_back();
      vth_hist_.push_back(0.0f);
    }
    tensor::Tensor& slot = h_hist_[static_cast<std::size_t>(t)];
    if (slot.shape() != x.shape()) slot = tensor::Tensor(x.shape());
    vth_hist_[static_cast<std::size_t>(t)] = vth;
    h = slot.data();
    ++steps_;
  }

  tensor::Tensor s = tensor::Tensor::uninitialized(x.shape());
  const F32x8 kv = compute::splat_f32x8(k());
  const F32x8 vthv = compute::splat_f32x8(vth);
  const std::size_t n = x.size();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    forward8(x.data() + i, v_.data() + i, s.data() + i,
             h != nullptr ? h + i : nullptr, kv, vthv);
  }
  if (i < n) {
    const std::size_t r = n - i;
    float xb[kLanes] = {}, vb[kLanes] = {}, sb[kLanes], hb[kLanes];
    std::copy_n(x.data() + i, r, xb);
    std::copy_n(v_.data() + i, r, vb);
    forward8(xb, vb, sb, hb, kv, vthv);
    std::copy_n(vb, r, v_.data() + i);
    std::copy_n(sb, r, s.data() + i);
    if (h != nullptr) std::copy_n(hb, r, h + i);
  }
  return s;
}

tensor::Tensor Plif::backward(const tensor::Tensor& grad_out, int t) {
  if (t < 0 || t >= steps_) {
    throw std::logic_error("Plif::backward: no cache for this time step");
  }
  const auto ti = static_cast<std::size_t>(t);
  const tensor::Tensor& h = h_hist_[ti];
  if (grad_out.shape() != h.shape()) {
    throw std::invalid_argument("Plif::backward: gradient shape mismatch");
  }
  if (!carry_live_) {
    if (carry_.shape() != h.shape()) {
      carry_ = tensor::Tensor(h.shape());
    } else {
      carry_.zero();
    }
    carry_live_ = true;
  }

  BackwardStep st;
  st.surrogate = &cfg_.surrogate;
  st.k = k();
  st.inv_vth = 1.0f / vth_.value[0];
  st.vth = vth_hist_[ti];
  st.vth_prev = t > 0 ? vth_hist_[ti - 1] : 0.0f;
  st.has_prev = t > 0;
  // A frozen parameter's sum would never be read.
  st.want_dvth = vth_.trainable;
  st.want_dk = w_tau_.trainable;
  const float* hp = t > 0 ? h_hist_[ti - 1].data() : nullptr;

  const auto step =
      cfg_.surrogate.kind == SurrogateKind::kTriangle
          ? backward_step<SurrogateKind::kTriangle>
      : cfg_.surrogate.kind == SurrogateKind::kSigmoid
          ? backward_step<SurrogateKind::kSigmoid>
          : backward_step<SurrogateKind::kRectangle>;
  tensor::Tensor grad_in = tensor::Tensor::uninitialized(h.shape());
  const StepSums sums = step(h.data(), hp, grad_out.data(), carry_.data(),
                             grad_in.data(), h.size(), st);
  if (vth_.trainable) {
    vth_.grad[0] += static_cast<float>(sums.dvth);
  }
  if (w_tau_.trainable) {
    // fma(float(dk) * k, 1 - k, grad), as GCC contracts the scalar form.
    w_tau_.grad[0] = compute::madd(static_cast<float>(sums.dk) * st.k,
                                   1.0f - st.k, w_tau_.grad[0]);
  }
  return grad_in;
}

std::vector<Param*> Plif::params() { return {&vth_, &w_tau_}; }

}  // namespace falvolt::snn
