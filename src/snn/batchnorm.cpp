#include "snn/batchnorm.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "compute/simd.h"

namespace falvolt::snn {

namespace {

// Channels whose double sums run side by side, one per F64x4 lane.
constexpr int kGroup = 4;

// Per-channel sums over the n samples of two [n, channels, plane] arrays,
// for the `count` (1..kGroup) channels from c0: sa[l] = sum of a and
// sab[l] = sum of double(a) * double(b) over channel c0 + l (kSquares: b
// is a). Each channel's two chains take its elements in (sample, pixel)
// order, as a loop over that channel alone would; the group's chains run
// side by side, one per lane, so no element waits for another channel's
// add. Lanes past `count` repeat channel c0 and are dropped. A product of
// two floats is exact in double, so fused or not it rounds once.
template <bool kSquares>
void channel_sums(const float* a, const float* b, int n, int channels,
                  std::size_t plane, int c0, int count, double* sa,
                  double* sab) {
  const std::size_t o1 = count > 1 ? plane : 0;
  const std::size_t o2 = count > 2 ? 2 * plane : 0;
  const std::size_t o3 = count > 3 ? 3 * plane : 0;
  compute::F64x4 sum = compute::splat_f64x4(0.0);
  compute::F64x4 prod = compute::splat_f64x4(0.0);
  for (int s = 0; s < n; ++s) {
    const std::size_t off =
        (static_cast<std::size_t>(s) * channels + c0) * plane;
    const float* pa = a + off;
    const float* pb = b + off;
    for (std::size_t i = 0; i < plane; ++i) {
      const compute::F64x4 av = compute::gather_f64x4(
          pa + i, pa + o1 + i, pa + o2 + i, pa + o3 + i);
      const compute::F64x4 bv =
          kSquares ? av
                   : compute::gather_f64x4(pb + i, pb + o1 + i, pb + o2 + i,
                                           pb + o3 + i);
      sum = compute::add_f64x4(sum, av);
      prod = compute::madd_f64x4(av, bv, prod);
    }
  }
  double lanes[kGroup];
  compute::store_f64x4(lanes, sum);
  std::copy_n(lanes, count, sa);
  compute::store_f64x4(lanes, prod);
  std::copy_n(lanes, count, sab);
}

}  // namespace

BatchNorm2d::BatchNorm2d(std::string name, int channels, float momentum,
                         float eps)
    : Layer(std::move(name)),
      channels_(channels),
      momentum_(momentum),
      eps_(eps) {
  if (channels <= 0) {
    throw std::invalid_argument("BatchNorm2d: channels must be positive");
  }
  gamma_ = Param(Layer::name() + ".gamma", tensor::Tensor({channels}, 1.0f));
  beta_ = Param(Layer::name() + ".beta", tensor::Tensor({channels}));
  running_mean_ =
      Param(Layer::name() + ".running_mean", tensor::Tensor({channels}));
  running_mean_.trainable = false;
  running_var_ =
      Param(Layer::name() + ".running_var", tensor::Tensor({channels}, 1.0f));
  running_var_.trainable = false;
}

void BatchNorm2d::reset_state() { steps_ = 0; }

tensor::Tensor BatchNorm2d::forward(const tensor::Tensor& x, int t,
                                    Mode mode) {
  if (x.rank() != 4 || x.dim(1) != channels_) {
    throw std::invalid_argument("BatchNorm2d: expected [N, " +
                                std::to_string(channels_) + ", H, W]");
  }
  const int n = x.dim(0);
  const int h = x.dim(2);
  const int w = x.dim(3);
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const std::size_t per_c = static_cast<std::size_t>(n) * plane;

  tensor::Tensor out = tensor::Tensor::uninitialized(x.shape());
  StepCache* sc = nullptr;
  if (mode == Mode::kTrain) {
    if (t != steps_) {
      throw std::logic_error("BatchNorm2d::forward: cache out of sync");
    }
    if (cache_.size() <= static_cast<std::size_t>(t)) cache_.emplace_back();
    sc = &cache_[static_cast<std::size_t>(t)];
    if (sc->x_hat.shape() != x.shape()) sc->x_hat = tensor::Tensor(x.shape());
    sc->inv_std.resize(static_cast<std::size_t>(channels_));
    ++steps_;
  }

  // The multiply-adds are pinned to the contractions GCC makes in the
  // plain loops (compute::madd, compute::nmadd), so every build type
  // rounds as its own plain loops do.
  for (int c0 = 0; c0 < channels_; c0 += kGroup) {
    const int count = std::min(kGroup, channels_ - c0);
    double sum[kGroup] = {};
    double sq[kGroup] = {};
    if (mode == Mode::kTrain) {
      channel_sums<true>(x.data(), x.data(), n, channels_, plane, c0, count,
                         sum, sq);
    }
    for (int c = c0; c < c0 + count; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      double mean;
      double var;
      if (mode == Mode::kTrain) {
        mean = sum[c - c0] / static_cast<double>(per_c);
        var = compute::nmadd(mean, mean,
                             sq[c - c0] / static_cast<double>(per_c));
        if (var < 0.0) var = 0.0;
        running_mean_.value[ci] =
            compute::madd(1.0f - momentum_, running_mean_.value[ci],
                          momentum_ * static_cast<float>(mean));
        running_var_.value[ci] =
            compute::madd(1.0f - momentum_, running_var_.value[ci],
                          momentum_ * static_cast<float>(var));
      } else {
        mean = running_mean_.value[ci];
        var = running_var_.value[ci];
      }
      const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
      const float mean_f = static_cast<float>(mean);
      const float g = gamma_.value[ci];
      const float b = beta_.value[ci];
      for (int s = 0; s < n; ++s) {
        const std::size_t off =
            (static_cast<std::size_t>(s) * channels_ + c) * plane;
        const float* p = x.data() + off;
        float* o = out.data() + off;
        float* xh = sc != nullptr ? sc->x_hat.data() + off : nullptr;
        for (std::size_t i = 0; i < plane; ++i) {
          const float norm = (p[i] - mean_f) * inv_std;
          if (xh) xh[i] = norm;
          o[i] = compute::madd(g, norm, b);
        }
      }
      if (sc != nullptr) sc->inv_std[ci] = inv_std;
    }
  }

  return out;
}

tensor::Tensor BatchNorm2d::backward(const tensor::Tensor& grad_out, int t) {
  if (t < 0 || t >= steps_) {
    throw std::logic_error("BatchNorm2d::backward: no cache for step");
  }
  const StepCache& sc = cache_[static_cast<std::size_t>(t)];
  if (grad_out.shape() != sc.x_hat.shape()) {
    throw std::invalid_argument("BatchNorm2d::backward: shape mismatch");
  }
  const int n = sc.x_hat.dim(0);
  const std::size_t plane =
      static_cast<std::size_t>(sc.x_hat.dim(2)) * sc.x_hat.dim(3);
  const std::size_t per_c = static_cast<std::size_t>(n) * plane;

  tensor::Tensor grad_in = tensor::Tensor::uninitialized(grad_out.shape());
  for (int c0 = 0; c0 < channels_; c0 += kGroup) {
    const int count = std::min(kGroup, channels_ - c0);
    // Reductions: sum(dy), sum(dy * x_hat).
    double sum_dy[kGroup] = {};
    double sum_dy_xhat[kGroup] = {};
    channel_sums<false>(grad_out.data(), sc.x_hat.data(), n, channels_,
                        plane, c0, count, sum_dy, sum_dy_xhat);
    for (int c = c0; c < c0 + count; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      const double sdy = sum_dy[c - c0];
      const double sdyx = sum_dy_xhat[c - c0];
      if (gamma_.trainable) gamma_.grad[ci] += static_cast<float>(sdyx);
      if (beta_.trainable) beta_.grad[ci] += static_cast<float>(sdy);
      const float mean_dy = static_cast<float>(sdy / per_c);
      const float mean_dy_xhat = static_cast<float>(sdyx / per_c);
      // g * inv_std * (dy - mean_dy - x_hat * mean_dy_xhat), with the
      // product of the last two fused where GCC fuses it.
      const float scale = gamma_.value[ci] * sc.inv_std[ci];
      for (int s = 0; s < n; ++s) {
        const std::size_t off =
            (static_cast<std::size_t>(s) * channels_ + c) * plane;
        const float* dy = grad_out.data() + off;
        const float* xh = sc.x_hat.data() + off;
        float* dx = grad_in.data() + off;
        for (std::size_t i = 0; i < plane; ++i) {
          dx[i] = scale * compute::nmadd(xh[i], mean_dy_xhat, dy[i] - mean_dy);
        }
      }
    }
  }
  return grad_in;
}

std::vector<Param*> BatchNorm2d::params() {
  return {&gamma_, &beta_, &running_mean_, &running_var_};
}

}  // namespace falvolt::snn
