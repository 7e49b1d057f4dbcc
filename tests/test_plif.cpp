#include "snn/plif.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "compute/simd.h"
#include "test_util.h"

namespace falvolt::snn {
namespace {

using falvolt::testutil::analytic_grads;
using falvolt::testutil::numeric_grad;
using falvolt::testutil::random_tensor;

TEST(Plif, FiresWhenMembraneExceedsThreshold) {
  PlifConfig cfg;
  cfg.initial_tau = 2.0f;  // k = 0.5
  cfg.initial_vth = 1.0f;
  Plif p("p", cfg);
  p.reset_state();
  // Step 0: H = 0 + 0.5 * (3 - 0) = 1.5 > 1 -> spike, reset to 0.
  tensor::Tensor x({1, 1}, 3.0f);
  tensor::Tensor s0 = p.forward(x, 0, Mode::kEval);
  EXPECT_EQ(s0[0], 1.0f);
  // Step 1 after reset: H = 0.5 * 3 = 1.5 -> spikes again.
  tensor::Tensor s1 = p.forward(x, 1, Mode::kEval);
  EXPECT_EQ(s1[0], 1.0f);
}

TEST(Plif, SubthresholdInputAccumulates) {
  PlifConfig cfg;
  cfg.initial_tau = 2.0f;
  cfg.initial_vth = 1.0f;
  Plif p("p", cfg);
  p.reset_state();
  tensor::Tensor x({1, 1}, 0.8f);
  // H0 = 0.4 (no spike), H1 = 0.4 + 0.5*(0.8-0.4) = 0.6, H2 = 0.7, ...
  EXPECT_EQ(p.forward(x, 0, Mode::kEval)[0], 0.0f);
  EXPECT_EQ(p.forward(x, 1, Mode::kEval)[0], 0.0f);
  // The membrane converges to x = 0.8 < 1.0, so it never fires.
  for (int t = 2; t < 20; ++t) {
    EXPECT_EQ(p.forward(x, t, Mode::kEval)[0], 0.0f);
  }
}

TEST(Plif, LowerThresholdFiresMore) {
  tensor::Tensor x({1, 1}, 0.8f);
  auto count_spikes = [&](float vth) {
    PlifConfig cfg;
    cfg.initial_vth = vth;
    Plif p("p", cfg);
    p.reset_state();
    int spikes = 0;
    for (int t = 0; t < 20; ++t) {
      spikes += p.forward(x, t, Mode::kEval)[0] == 1.0f ? 1 : 0;
    }
    return spikes;
  };
  EXPECT_GT(count_spikes(0.45f), count_spikes(0.7f));
  EXPECT_EQ(count_spikes(1.2f), 0);
}

TEST(Plif, NonConsecutiveTimeStepThrows) {
  Plif p("p");
  p.reset_state();
  tensor::Tensor x({1, 1}, 0.5f);
  p.forward(x, 0, Mode::kTrain);
  EXPECT_THROW(p.forward(x, 2, Mode::kTrain), std::logic_error);
}

TEST(Plif, ResetStateClearsMembrane) {
  PlifConfig cfg;
  cfg.initial_vth = 1.0f;
  Plif p("p", cfg);
  p.reset_state();
  tensor::Tensor x({1, 1}, 0.9f);
  p.forward(x, 0, Mode::kEval);
  p.reset_state();
  // After reset the same stimulus gives the same (subthreshold) response.
  EXPECT_EQ(p.forward(x, 0, Mode::kEval)[0], 0.0f);
}

TEST(Plif, SetVthClamps) {
  Plif p("p");
  p.set_vth(100.0f);
  EXPECT_FLOAT_EQ(p.vth(), 2.0f);  // default vth_max
  p.set_vth(0.0f);
  EXPECT_FLOAT_EQ(p.vth(), 0.05f);  // default vth_min
}

TEST(Plif, TauMatchesConfig) {
  PlifConfig cfg;
  cfg.initial_tau = 4.0f;
  Plif p("p", cfg);
  EXPECT_NEAR(p.tau(), 4.0f, 1e-4f);
  EXPECT_NEAR(p.k(), 0.25f, 1e-5f);
}

TEST(Plif, InvalidConfigThrows) {
  PlifConfig cfg;
  cfg.initial_tau = 1.0f;
  EXPECT_THROW(Plif("p", cfg), std::invalid_argument);
  cfg.initial_tau = 2.0f;
  cfg.initial_vth = 0.0f;
  EXPECT_THROW(Plif("p", cfg), std::invalid_argument);
}

// ---- Gradient checks (BPTT through 4 steps) ----
//
// The true spike function is piecewise constant, so finite differences of
// the layer output are 0 almost everywhere and O(1/eps) at spike flips —
// they can never validate a *surrogate* gradient. Instead we validate the
// layer against an independent hand-coded reference implementation of the
// surrogate-BPTT recursion (paper Eqs. 2-4, with the reset branch
// detached as plif.h describes):
//   dL/dH_t   = y_t * sg(z_t)/V + carry_{t+1} * (1 - S_t)
//   dL/dV    += y_t * sg(z_t) * (-H_t / V^2)
//   dL/dx_t   = dL/dH_t * k
//   dL/dk    += dL/dH_t * (x_t - V_{t-1})
//   carry_t   = dL/dH_t * (1 - k)
struct ReferenceGrads {
  std::vector<tensor::Tensor> input;
  double vth = 0.0;
  double w_tau = 0.0;
};

ReferenceGrads reference_bptt(const std::vector<tensor::Tensor>& xs,
                              const std::vector<tensor::Tensor>& ys,
                              float k, float vth, const Surrogate& sg) {
  const int T = static_cast<int>(xs.size());
  const std::size_t n = xs[0].size();
  // Forward: record H_t, S_t, V_{t-1}.
  std::vector<tensor::Tensor> h(T), s(T), vprev(T);
  tensor::Tensor v(xs[0].shape());
  for (int t = 0; t < T; ++t) {
    h[t] = tensor::Tensor(xs[0].shape());
    s[t] = tensor::Tensor(xs[0].shape());
    vprev[t] = v;
    for (std::size_t i = 0; i < n; ++i) {
      const float hi = v[i] + k * (xs[t][i] - v[i]);
      h[t][i] = hi;
      const bool fire = hi > vth;
      s[t][i] = fire ? 1.0f : 0.0f;
      v[i] = fire ? 0.0f : hi;
    }
  }
  // Backward.
  ReferenceGrads out;
  out.input.assign(static_cast<std::size_t>(T), tensor::Tensor());
  tensor::Tensor carry(xs[0].shape());
  double dk = 0.0;
  for (int t = T - 1; t >= 0; --t) {
    out.input[static_cast<std::size_t>(t)] = tensor::Tensor(xs[0].shape());
    for (std::size_t i = 0; i < n; ++i) {
      const float z = h[t][i] / vth - 1.0f;
      const float g = sg.grad(z);
      const float dh = ys[t][i] * g / vth + carry[i] * (1.0f - s[t][i]);
      out.vth += static_cast<double>(ys[t][i]) * g *
                 (-h[t][i] / (vth * vth));
      dk += static_cast<double>(dh) * (xs[t][i] - vprev[t][i]);
      out.input[static_cast<std::size_t>(t)][i] = dh * k;
      carry[i] = dh * (1.0f - k);
    }
  }
  out.w_tau = dk * k * (1.0 - k);
  return out;
}

std::vector<tensor::Tensor> make_inputs(common::Rng& rng, int t_steps,
                                        tensor::Shape shape) {
  std::vector<tensor::Tensor> xs;
  for (int t = 0; t < t_steps; ++t) {
    xs.push_back(falvolt::testutil::random_tensor(shape, rng, 0.0, 2.0));
  }
  return xs;
}

TEST(PlifGrad, MatchesIndependentReferenceRecursion) {
  common::Rng rng(31);
  PlifConfig cfg;
  cfg.train_vth = true;
  Plif p("p", cfg);
  const int T = 4;
  auto xs = make_inputs(rng, T, {2, 3});
  std::vector<tensor::Tensor> ys;
  for (int t = 0; t < T; ++t) {
    ys.push_back(falvolt::testutil::random_tensor({2, 3}, rng));
  }
  const auto grads = analytic_grads(p, xs, ys);
  const ReferenceGrads ref =
      reference_bptt(xs, ys, p.k(), p.vth(), p.surrogate());
  for (int t = 0; t < T; ++t) {
    for (std::size_t i = 0; i < xs[0].size(); ++i) {
      EXPECT_NEAR(grads[t][i], ref.input[static_cast<std::size_t>(t)][i],
                  1e-5)
          << "t=" << t << " i=" << i;
    }
  }
  EXPECT_NEAR(p.params()[0]->grad[0], ref.vth, 1e-4);    // vth
  EXPECT_NEAR(p.params()[1]->grad[0], ref.w_tau, 1e-4);  // w_tau
}

TEST(PlifGrad, VthGradientSignLowersThresholdWhenMoreSpikesWanted) {
  // If the loss rewards spiking (positive cotangent on S) and the neuron
  // is near threshold, dL/dV must be negative: lowering V_th raises S.
  PlifConfig cfg;
  cfg.train_vth = true;
  Plif p("p", cfg);
  p.reset_state();
  std::vector<tensor::Tensor> xs{tensor::Tensor({1, 1}, 1.9f)};  // H ~ 0.95
  std::vector<tensor::Tensor> ys{tensor::Tensor({1, 1}, -1.0f)};
  // Loss = -S (we *want* spikes); dL/dV = -sg * (-H/V^2) * ... sign check:
  analytic_grads(p, xs, ys);
  EXPECT_GT(p.params()[0]->grad[0], 0.0f);
  // Gradient descent then *decreases* V? No: grad > 0 means descent
  // lowers V_th, which increases spiking and decreases the loss. Verify
  // by stepping manually.
  const float before = p.vth();
  p.set_vth(before - 0.2f);
  p.reset_state();
  const tensor::Tensor s = p.forward(xs[0], 0, Mode::kEval);
  EXPECT_EQ(s[0], 1.0f);  // now fires
}

TEST(PlifGrad, TauGradientNonzeroWhenTrained) {
  common::Rng rng(35);
  Plif p("p");
  const int T = 3;
  auto xs = make_inputs(rng, T, {4, 4});
  std::vector<tensor::Tensor> ys;
  for (int t = 0; t < T; ++t) {
    ys.push_back(falvolt::testutil::random_tensor({4, 4}, rng));
  }
  analytic_grads(p, xs, ys);
  // params()[1] is w_tau.
  EXPECT_NE(p.params()[1]->grad[0], 0.0f);
}

TEST(PlifGrad, VthGradientZeroWhenFrozen) {
  common::Rng rng(37);
  PlifConfig cfg;
  cfg.train_vth = false;  // FaPIT mode
  Plif p("p", cfg);
  const int T = 3;
  auto xs = make_inputs(rng, T, {4, 4});
  std::vector<tensor::Tensor> ys;
  for (int t = 0; t < T; ++t) {
    ys.push_back(falvolt::testutil::random_tensor({4, 4}, rng));
  }
  analytic_grads(p, xs, ys);
  EXPECT_EQ(p.params()[0]->grad[0], 0.0f);
}

// ---- Bit identity with the scalar loops ----
//
// Plif runs its element-wise math eight lanes at a time, caches only H_t
// and recomputes S_t and V_{t-1} in backward. None of that may move a
// bit. ScalarPlif is the previous implementation's forward/backward loops,
// which cached H_t, S_t and V_{t-1}. Each multiply-add that GCC 12
// contracts in those loops (read from its disassembly) is pinned with
// compute::madd, so the oracle rounds like the compiled loops in every
// build:
//   z  = fma(H, 1/V, -1)
//   dH = fma(g * sg, 1/V, carry * (1 - S))
//   dV = fma(double(g) * double(sg), double(-H / V / V), dV)
//   dk = dk + double(dH) * double(H - V_{t-1}) / double(k)   (unfused)
//   H  = fma(k, X - V, V)                                     (forward)
class ScalarPlif {
 public:
  explicit ScalarPlif(const PlifConfig& cfg) : cfg_(cfg) {}

  void reset_state() {
    v_ = tensor::Tensor();
    carry_ = tensor::Tensor();
    h_hist_.clear();
    s_hist_.clear();
    vprev_hist_.clear();
  }

  tensor::Tensor forward(const tensor::Tensor& x, int t, float kk,
                         float vth) {
    if (v_.empty()) v_ = tensor::Tensor(x.shape());
    tensor::Tensor h(x.shape());
    tensor::Tensor s(x.shape());
    for (std::size_t i = 0; i < x.size(); ++i) {
      const float hi = compute::madd(kk, x[i] - v_[i], v_[i]);
      h[i] = hi;
      const bool fire = hi > vth;
      s[i] = fire ? 1.0f : 0.0f;
      v_[i] = fire ? 0.0f : hi;  // hard reset
    }
    vprev_hist_.push_back(t == 0 ? tensor::Tensor(x.shape()) : [&] {
      tensor::Tensor vp(x.shape());
      const auto& hp = h_hist_.back();
      const auto& sp = s_hist_.back();
      for (std::size_t i = 0; i < vp.size(); ++i) {
        vp[i] = sp[i] > 0.5f ? 0.0f : hp[i];
      }
      return vp;
    }());
    h_hist_.push_back(h);
    s_hist_.push_back(s);
    return s;
  }

  tensor::Tensor backward(const tensor::Tensor& grad_out, int t, float kk,
                          float vth) {
    const auto& h = h_hist_[static_cast<std::size_t>(t)];
    const auto& s = s_hist_[static_cast<std::size_t>(t)];
    const auto& vprev = vprev_hist_[static_cast<std::size_t>(t)];
    if (carry_.empty()) carry_ = tensor::Tensor(h.shape());
    const float inv_vth = 1.0f / vth;
    tensor::Tensor grad_in(h.shape());
    double dvth = 0.0;
    double dk = 0.0;
    for (std::size_t i = 0; i < h.size(); ++i) {
      const float z = compute::madd(h[i], inv_vth, -1.0f);
      const float sg = cfg_.surrogate.grad(z);
      const float dh = compute::madd(grad_out[i] * sg, inv_vth,
                                     carry_[i] * (1.0f - s[i]));
      dvth = compute::madd(static_cast<double>(grad_out[i]) * sg,
                           static_cast<double>(-h[i] * inv_vth * inv_vth),
                           dvth);
      dk += static_cast<double>(dh) * (h[i] - vprev[i]) / kk;
      grad_in[i] = dh * kk;
      carry_[i] = dh * (1.0f - kk);
    }
    if (cfg_.train_vth) vth_grad += static_cast<float>(dvth);
    if (cfg_.train_tau) {
      w_tau_grad =
          compute::madd(static_cast<float>(dk) * kk, 1.0f - kk, w_tau_grad);
    }
    return grad_in;
  }

  float vth_grad = 0.0f;
  float w_tau_grad = 0.0f;

 private:
  PlifConfig cfg_;
  tensor::Tensor v_;
  std::vector<tensor::Tensor> h_hist_;
  std::vector<tensor::Tensor> s_hist_;
  std::vector<tensor::Tensor> vprev_hist_;
  tensor::Tensor carry_;
};

void expect_same_bits(const void* got, const void* want, std::size_t bytes,
                      const std::string& what) {
  EXPECT_EQ(std::memcmp(got, want, bytes), 0) << what << " differs";
}

TEST(PlifBitIdentity, MatchesScalarLoops) {
  constexpr int kSteps = 5;
  const SurrogateKind kinds[] = {SurrogateKind::kTriangle,
                                 SurrogateKind::kSigmoid,
                                 SurrogateKind::kRectangle};
  for (const SurrogateKind kind : kinds) {
    for (const bool train_vth : {false, true}) {
      for (const bool train_tau : {false, true}) {
        for (const int n : {6, 8, 1037}) {
          PlifConfig cfg;
          cfg.surrogate = Surrogate{kind, 2.0f};
          cfg.train_vth = train_vth;
          cfg.train_tau = train_tau;
          SCOPED_TRACE(cfg.surrogate.to_string() +
                       (train_vth ? " train_vth" : "") +
                       (train_tau ? " train_tau" : "") +
                       " n=" + std::to_string(n));
          Plif p("p", cfg);
          ScalarPlif ref(cfg);
          common::Rng rng(static_cast<std::uint64_t>(n) * 8 +
                          static_cast<std::uint64_t>(kind) * 4 +
                          train_vth * 2 + train_tau);
          // Two batches; V_th moves between them, as an optimizer step
          // moves it between FalVolt's retraining batches.
          for (const float vth : {1.0f, 0.7f}) {
            p.set_vth(vth);
            p.reset_state();
            ref.reset_state();
            const float kk = p.k();
            for (int t = 0; t < kSteps; ++t) {
              const tensor::Tensor x = random_tensor({n}, rng, 0.0, 2.0);
              const tensor::Tensor s = p.forward(x, t, Mode::kTrain);
              const tensor::Tensor want = ref.forward(x, t, kk, p.vth());
              expect_same_bits(s.data(), want.data(), sizeof(float) * n,
                               "spikes at t=" + std::to_string(t));
            }
            for (int t = kSteps - 1; t >= 0; --t) {
              const tensor::Tensor g = random_tensor({n}, rng, -1.0, 1.0);
              const tensor::Tensor got = p.backward(g, t);
              const tensor::Tensor want = ref.backward(g, t, kk, p.vth());
              expect_same_bits(got.data(), want.data(), sizeof(float) * n,
                               "input gradient at t=" + std::to_string(t));
            }
            expect_same_bits(&p.params()[0]->grad[0], &ref.vth_grad,
                             sizeof(float), "V_th gradient");
            expect_same_bits(&p.params()[1]->grad[0], &ref.w_tau_grad,
                             sizeof(float), "w_tau gradient");
          }
          if (HasFailure()) return;
        }
      }
    }
  }
}

// Edge values at every `stride`-th entry of `t` from entry 3: the first
// `kinds` of -0, NaN, +Inf and -Inf, in turn.
void add_edge_values(tensor::Tensor& t, std::size_t stride, int kinds) {
  const float specials[] = {-0.0f, std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
  std::size_t k = 0;
  for (std::size_t i = 3; i < t.size(); i += stride) {
    t[i] = specials[k++ % static_cast<std::size_t>(kinds)];
  }
}

// Bit identity where NaNs may meet (testutil::first_bit_difference).
void expect_same_bits_or_nan(const float* got, const float* want,
                             std::size_t n, const std::string& what) {
  const std::size_t i = falvolt::testutil::first_bit_difference(got, want, n);
  EXPECT_EQ(i, n) << what << " differs at " << i;
}

// The inputs carry -0 (then also NaN and +-Inf), so H does (the membrane
// of a NaN or -Inf input stays NaN for the later steps), and so does the
// incoming gradient; V_th and tau both train, so both double sums run.
// With -0 alone every value stays finite.
TEST(PlifBitIdentity, EdgeValuesMatchScalarLoops) {
  constexpr int kSteps = 4;
  const SurrogateKind kinds[] = {SurrogateKind::kTriangle,
                                 SurrogateKind::kSigmoid,
                                 SurrogateKind::kRectangle};
  for (const int specials : {1, 4}) {
    for (const SurrogateKind kind : kinds) {
      for (const int n : {7, 64, 1037}) {
        PlifConfig cfg;
        cfg.surrogate = Surrogate{kind, 2.0f};
        cfg.train_vth = true;
        cfg.train_tau = true;
        SCOPED_TRACE(cfg.surrogate.to_string() + " n=" + std::to_string(n) +
                     " edge kinds=" + std::to_string(specials));
        Plif p("p", cfg);
        ScalarPlif ref(cfg);
        common::Rng rng(static_cast<std::uint64_t>(n) * 3 +
                        static_cast<std::uint64_t>(kind));
        p.reset_state();
        ref.reset_state();
        const float kk = p.k();
        for (int t = 0; t < kSteps; ++t) {
          tensor::Tensor x = random_tensor({n}, rng, 0.0, 2.0);
          add_edge_values(x, 11 + 2 * static_cast<std::size_t>(t), specials);
          const tensor::Tensor s = p.forward(x, t, Mode::kTrain);
          const tensor::Tensor want = ref.forward(x, t, kk, p.vth());
          expect_same_bits(s.data(), want.data(), sizeof(float) * n,
                           "spikes at t=" + std::to_string(t));
        }
        for (int t = kSteps - 1; t >= 0; --t) {
          tensor::Tensor g = random_tensor({n}, rng, -1.0, 1.0);
          add_edge_values(g, 29 + 4 * static_cast<std::size_t>(t), specials);
          const tensor::Tensor got = p.backward(g, t);
          const tensor::Tensor want = ref.backward(g, t, kk, p.vth());
          expect_same_bits_or_nan(got.data(), want.data(), got.size(),
                                  "input gradient at t=" + std::to_string(t));
        }
        expect_same_bits_or_nan(&p.params()[0]->grad[0], &ref.vth_grad, 1,
                                "V_th gradient");
        expect_same_bits_or_nan(&p.params()[1]->grad[0], &ref.w_tau_grad, 1,
                                "w_tau gradient");
        if (specials == 1) {
          EXPECT_TRUE(std::isfinite(p.params()[0]->grad[0]) &&
                      std::isfinite(p.params()[1]->grad[0]));
        }
        if (HasFailure()) return;
      }
    }
  }
}

TEST(PlifGrad, BackwardWithoutCacheThrows) {
  Plif p("p");
  p.reset_state();
  tensor::Tensor g({1, 1});
  EXPECT_THROW(p.backward(g, 0), std::logic_error);
}

}  // namespace
}  // namespace falvolt::snn
