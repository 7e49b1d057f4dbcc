#include "snn/conv2d.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "compute/gemm_kernels.h"
#include "compute/simd.h"
#include "compute/thread_pool.h"

namespace falvolt::snn {

namespace {

// Output channels of the vector repack and of conv_input_grad8.
constexpr int kPanel = 8;

// Repacks n samples of 8 gradient planes [8, p] into pixel rows [n * p, 8]
// through 8 x 8 transposes, and adds the rows to `sum` (when not null) in
// row order, one chain per channel, as the scalar loop over rows does.
void rows_and_sum8(const float* planes, int n, int p, float* rows,
                   float* sum) {
  compute::F32x8 acc = sum != nullptr ? compute::load_f32x8(sum)
                                      : compute::splat_f32x8(0.0f);
  for (int s = 0; s < n; ++s) {
    const float* src = planes + static_cast<std::size_t>(s) * kPanel * p;
    float* dst = rows + static_cast<std::size_t>(s) * p * kPanel;
    int pix = 0;
    for (; pix + kPanel <= p; pix += kPanel) {
      compute::F32x8 r[kPanel];
      for (int c = 0; c < kPanel; ++c) {
        r[c] = compute::load_f32x8(src + static_cast<std::size_t>(c) * p +
                                   pix);
      }
      compute::transpose_f32x8(r);
      for (int j = 0; j < kPanel; ++j) {
        compute::store_f32x8(dst + static_cast<std::size_t>(pix + j) * kPanel,
                             r[j]);
        acc = compute::add_f32x8(acc, r[j]);
      }
    }
    for (; pix < p; ++pix) {
      float* row = dst + static_cast<std::size_t>(pix) * kPanel;
      for (int c = 0; c < kPanel; ++c) {
        row[c] = src[static_cast<std::size_t>(c) * p + pix];
      }
      acc = compute::add_f32x8(acc, compute::load_f32x8(row));
    }
  }
  if (sum != nullptr) compute::store_f32x8(sum, acc);
}

}  // namespace

Conv2d::Conv2d(std::string name, int in_channels, int out_channels,
               int kernel, int pad, common::Rng& init_rng, bool bias)
    : Layer(std::move(name)),
      in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      pad_(pad),
      has_bias_(bias) {
  if (in_channels <= 0 || out_channels <= 0 || kernel <= 0 || pad < 0) {
    throw std::invalid_argument("Conv2d: invalid geometry");
  }
  const int k = in_channels * kernel * kernel;
  weight_ = Param(Layer::name() + ".weight",
                  tensor::Tensor({k, out_channels}));
  // Kaiming-uniform on fan-in.
  const float bound = std::sqrt(6.0f / static_cast<float>(k));
  for (auto& w : weight_.value) {
    w = static_cast<float>(init_rng.uniform(-bound, bound));
  }
  bias_ = Param(Layer::name() + ".bias", tensor::Tensor({out_channels}));
  bias_.trainable = has_bias_;
}

void Conv2d::bind_geometry(const tensor::Tensor& x) {
  if (x.rank() != 4 || x.dim(1) != in_channels_) {
    throw std::invalid_argument("Conv2d: expected [N, " +
                                std::to_string(in_channels_) + ", H, W], got " +
                                tensor::shape_str(x.shape()));
  }
  tensor::ConvGeometry g;
  g.in_channels = in_channels_;
  g.in_h = x.dim(2);
  g.in_w = x.dim(3);
  g.kernel_h = kernel_;
  g.kernel_w = kernel_;
  g.stride = 1;
  g.pad = pad_;
  if (geometry_bound_ && (g.in_h != geometry_.in_h || g.in_w != geometry_.in_w)) {
    throw std::invalid_argument("Conv2d: input spatial size changed");
  }
  geometry_ = g;
  geometry_bound_ = true;
}

void Conv2d::reset_state() { steps_ = 0; }

tensor::Tensor Conv2d::forward(const tensor::Tensor& x, int t, Mode mode) {
  bind_geometry(x);
  if (mode == Mode::kTrain) {
    if (t != steps_) {
      throw std::logic_error("Conv2d::forward: cache out of sync");
    }
    if (inputs_.size() <= static_cast<std::size_t>(t)) inputs_.emplace_back();
    inputs_[static_cast<std::size_t>(t)] = x;
    ++steps_;
  }
  const int n = x.dim(0);
  // GemmEngine::conv writes every output element.
  tensor::Tensor out = tensor::Tensor::uninitialized(
      {n, out_channels_, geometry_.out_h(), geometry_.out_w()});
  GemmEngine& eng = engine_ ? *engine_ : FloatGemmEngine::instance();
  eng.conv(x.data(), n, geometry_, weight_.value.data(), out_channels_,
           has_bias_ ? bias_.value.data() : nullptr, out.data(),
           Layer::name());
  return out;
}

tensor::Tensor Conv2d::backward(const tensor::Tensor& grad_out, int t) {
  tensor::Tensor grad_in;
  backward_impl(grad_out, t, &grad_in);
  return grad_in;
}

void Conv2d::backward_params(const tensor::Tensor& grad_out, int t) {
  backward_impl(grad_out, t, nullptr);
}

void Conv2d::backward_impl(const tensor::Tensor& grad_out, int t,
                           tensor::Tensor* grad_in) {
  if (t < 0 || t >= steps_) {
    throw std::logic_error("Conv2d::backward: no cache for this time step");
  }
  const tensor::Tensor& x = inputs_[static_cast<std::size_t>(t)];
  const int n = x.dim(0);
  const int p = geometry_.out_pixels();
  const int k = geometry_.patch_size();
  const int m = out_channels_;
  if (grad_out.rank() != 4 || grad_out.dim(0) != n || grad_out.dim(1) != m) {
    throw std::invalid_argument("Conv2d::backward: gradient shape mismatch");
  }

  // Repack [N, Cout, OH, OW] -> G [n*p, m], and the bias gradient: each
  // channel adds G's column to its value, row by row.
  const tensor::Shape rows_shape{n * p, m};
  if (grad_rows_.shape() != rows_shape) grad_rows_ = tensor::Tensor(rows_shape);
  float* g = grad_rows_.data();
  const bool bias_grad = has_bias_ && bias_.trainable;
  if (m == kPanel) {
    rows_and_sum8(grad_out.data(), n, p, g,
                  bias_grad ? bias_.grad.data() : nullptr);
  } else {
    for (int s = 0; s < n; ++s) {
      for (int c = 0; c < m; ++c) {
        const float* plane =
            grad_out.data() + (static_cast<std::size_t>(s) * m + c) * p;
        for (int pix = 0; pix < p; ++pix) {
          g[(static_cast<std::size_t>(s) * p + pix) * m + c] = plane[pix];
        }
      }
    }
    if (bias_grad) {
      for (int row = 0; row < n * p; ++row) {
        const float* grow = g + static_cast<std::size_t>(row) * m;
        for (int c = 0; c < m; ++c) {
          bias_.grad[static_cast<std::size_t>(c)] += grow[c];
        }
      }
    }
  }

  // Weight gradient: W_grad[k x m] += cols^T[k x n*p] * G[n*p x m], with
  // the im2col matrix `cols` read in place from the step's input.
  if (weight_.trainable) {
    tensor::conv_weight_grad(x.data(), n, geometry_, g, m,
                             weight_.grad.data());
  }
  if (grad_in == nullptr) return;

  // Input gradient. When the whole [n*p x m] * W^T product would run on
  // gemm_a_bt's blocked tier and Cout = 8, one fused kernel writes each
  // sample's gradient, adding the taps' gradient planes in a
  // zero-bordered scratch (tensor/im2col.h). Otherwise each sample's
  // dCols_s[p x k] = G_s * W^T fills a cache-resident block that col2im
  // adds into the zeroed gradient straight away, on the tier
  // tensor::gemm_a_bt would pick for the whole product, so every block
  // keeps its bits.
  const tensor::Shape in_shape{n, in_channels_, geometry_.in_h,
                               geometry_.in_w};
  const bool blocked = compute::gemm_a_bt_picks_blocked(n * p, m, k);
  if (blocked && m == kPanel) {
    *grad_in = tensor::Tensor::uninitialized(in_shape);
    tensor::conv_input_grad8(grad_out.data(), n, geometry_,
                             weight_.value.data(), grad_in->data());
    return;
  }
  *grad_in = tensor::Tensor(in_shape);
  const std::size_t in_plane =
      static_cast<std::size_t>(in_channels_) * geometry_.in_h * geometry_.in_w;
  const std::size_t block_size = static_cast<std::size_t>(p) * k;
  const auto samples = [&](int s0, int s1) {
    const std::unique_ptr<float[]> block(new float[block_size]);
    for (int s = s0; s < s1; ++s) {
      const std::size_t g_offset = static_cast<std::size_t>(s) * p * m;
      if (blocked) {
        compute::gemm_a_bt_blocked(g + g_offset, weight_.value.data(),
                                   block.get(), p, m, k);
      } else {
        compute::gemm_a_bt_naive(g + g_offset, weight_.value.data(),
                                 block.get(), p, m, k);
      }
      tensor::col2im(block.get(), 1, geometry_,
                     grad_in->data() + static_cast<std::size_t>(s) * in_plane);
    }
  };
  const int grain = static_cast<int>(std::max<std::size_t>(
      1, (std::size_t{1} << 16) / std::max<std::size_t>(block_size, 1)));
  if (n > grain && compute::global_threads() > 1) {
    compute::global_pool().parallel_for(0, n, grain, samples);
  } else {
    samples(0, n);
  }
}

std::vector<Param*> Conv2d::params() {
  std::vector<Param*> ps{&weight_};
  if (has_bias_) ps.push_back(&bias_);
  return ps;
}

}  // namespace falvolt::snn
