#include "tensor/im2col.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "compute/gemm_kernels.h"
#include "compute/simd.h"
#include "compute/thread_pool.h"

namespace falvolt::tensor {

namespace {

using compute::F32x8;

// Samples split across the global pool in chunks of at least this many
// im2col elements; smaller calls stay on the calling thread.
constexpr std::size_t kGrainElements = std::size_t{1} << 16;

// Pixels per vector in the direct kernels, and output channels per
// accumulator group of the direct forward.
constexpr int kLanes = 8;
// Zeroed floats after a padded sample: the direct forward's last pixel
// group of a row reads up to kLanes - 1 past the row's last window.
constexpr std::size_t kPaddedSlack = kLanes;

std::size_t padded_size(const ConvGeometry& g) {
  return static_cast<std::size_t>(g.in_channels) * g.padded_h() * g.padded_w();
}

// Copy the interior of a padded sample back to (C, H, W).
void unpad_sample(const float* src, const ConvGeometry& g, float* dst) {
  const int pw = g.padded_w();
  for (int c = 0; c < g.in_channels; ++c) {
    const float* plane = src + static_cast<std::size_t>(c) * g.padded_h() * pw;
    for (int y = 0; y < g.in_h; ++y) {
      std::copy_n(plane + static_cast<std::size_t>(y + g.pad) * pw + g.pad,
                  g.in_w,
                  dst + (static_cast<std::size_t>(c) * g.in_h + y) * g.in_w);
    }
  }
}

// Offset of each (channel, kernel row) window row from a window's origin
// in the padded buffer, in im2col column order.
std::vector<std::size_t> window_rows(const ConvGeometry& g) {
  const std::size_t pw = static_cast<std::size_t>(g.padded_w());
  std::vector<std::size_t> rows;
  rows.reserve(static_cast<std::size_t>(g.in_channels) * g.kernel_h);
  for (int c = 0; c < g.in_channels; ++c) {
    for (int ky = 0; ky < g.kernel_h; ++ky) {
      rows.push_back((static_cast<std::size_t>(c) * g.padded_h() + ky) * pw);
    }
  }
  return rows;
}

// Rows of one sample's im2col matrix from its padded copy: no tap can
// leave the buffer, so there is no bounds check. KW > 0 fixes the kernel
// width at compile time so each kernel row is a fixed-size move; KW = 0
// reads it from `g`.
template <int KW>
void im2col_sample(const float* padded, const ConvGeometry& g,
                   const std::vector<std::size_t>& rows, float* out) {
  const int kw = KW > 0 ? KW : g.kernel_w;
  const std::size_t pw = static_cast<std::size_t>(g.padded_w());
  for (int oy = 0; oy < g.out_h(); ++oy) {
    for (int ox = 0; ox < g.out_w(); ++ox) {
      const float* window = padded + oy * g.stride * pw + ox * g.stride;
      for (const std::size_t row : rows) {
        std::memcpy(out, window + row, sizeof(float) * kw);
        out += kw;
      }
    }
  }
}

// im2col_sample with the model zoo's kernel width (3) fixed at compile
// time.
void expand_sample(const float* padded, const ConvGeometry& g,
                   const std::vector<std::size_t>& rows, float* out) {
  if (g.kernel_w == 3) {
    im2col_sample<3>(padded, g, rows, out);
  } else {
    im2col_sample<0>(padded, g, rows, out);
  }
}

// Adds one sample's im2col-shaped gradient into its padded copy, output
// pixel by output pixel ((oy, ox) ascending), so every element receives
// its terms in that order. Out-of-image taps land in the padding.
template <int KW>
void col2im_sample(const float* cols, const ConvGeometry& g,
                   const std::vector<std::size_t>& rows, float* padded) {
  const int kw = KW > 0 ? KW : g.kernel_w;
  const std::size_t pw = static_cast<std::size_t>(g.padded_w());
  for (int oy = 0; oy < g.out_h(); ++oy) {
    for (int ox = 0; ox < g.out_w(); ++ox) {
      float* window = padded + oy * g.stride * pw + ox * g.stride;
      for (const std::size_t row : rows) {
        float* dst = window + row;
        for (int kx = 0; kx < kw; ++kx) dst[kx] += cols[kx];
        cols += kw;
      }
    }
  }
}

// Runs body(s0, s1, scratch) over sample ranges, split across the global
// pool when the batch is large; each range gets its own padded buffer.
template <typename Body>
void for_sample_ranges(int n, const ConvGeometry& g, const Body& body) {
  const std::size_t per_sample = static_cast<std::size_t>(g.out_pixels()) *
                                 static_cast<std::size_t>(g.patch_size());
  const int grain = static_cast<int>(std::max<std::size_t>(
      1, kGrainElements / std::max<std::size_t>(per_sample, 1)));
  const auto run = [&](int s0, int s1) {
    const std::unique_ptr<float[]> padded(
        new float[padded_size(g) + kPaddedSlack]());
    body(s0, s1, padded.get());
  };
  if (n > grain && compute::global_threads() > 1) {
    compute::global_pool().parallel_for(0, n, grain, run);
  } else if (n > 0) {
    run(0, n);
  }
}

// Weights [k x cout] as ceil(cout / 8) panels of [k x 8]; the channels
// missing from a partial last panel are zero.
std::vector<float> weight_panels(const float* weight, int k, int cout) {
  const int groups = (cout + kLanes - 1) / kLanes;
  std::vector<float> panels(static_cast<std::size_t>(groups) * k * kLanes,
                            0.0f);
  for (int kk = 0; kk < k; ++kk) {
    for (int c = 0; c < cout; ++c) {
      panels[(static_cast<std::size_t>(c / kLanes) * k + kk) * kLanes +
             c % kLanes] = weight[static_cast<std::size_t>(kk) * cout + c];
    }
  }
  return panels;
}

// One sample of the direct forward from its padded copy (stride 1). Per
// group of 8 output channels and 8 pixels of an output row, eight named
// accumulators (one per channel) stay in registers over all k taps.
void conv_forward_sample(const float* padded, const ConvGeometry& g,
                         const std::vector<std::size_t>& taps,
                         const float* panels, int cout, const float* bias,
                         float* out) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  const std::size_t pw = static_cast<std::size_t>(g.padded_w());
  const std::size_t p = static_cast<std::size_t>(oh) * ow;
  const std::size_t k = taps.size();
  const F32x8 zero = compute::splat_f32x8(0.0f);
  for (int c0 = 0; c0 < cout; c0 += kLanes) {
    const float* panel = panels + static_cast<std::size_t>(c0) * k;
    const int channels = std::min(kLanes, cout - c0);
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ox += kLanes) {
        const float* window = padded + oy * pw + ox;
        F32x8 a0 = zero, a1 = zero, a2 = zero, a3 = zero;
        F32x8 a4 = zero, a5 = zero, a6 = zero, a7 = zero;
        for (std::size_t kk = 0; kk < k; ++kk) {
          const F32x8 x = compute::load_f32x8(window + taps[kk]);
          const float* w = panel + kk * kLanes;
          a0 = compute::madd_f32x8(x, compute::splat_f32x8(w[0]), a0);
          a1 = compute::madd_f32x8(x, compute::splat_f32x8(w[1]), a1);
          a2 = compute::madd_f32x8(x, compute::splat_f32x8(w[2]), a2);
          a3 = compute::madd_f32x8(x, compute::splat_f32x8(w[3]), a3);
          a4 = compute::madd_f32x8(x, compute::splat_f32x8(w[4]), a4);
          a5 = compute::madd_f32x8(x, compute::splat_f32x8(w[5]), a5);
          a6 = compute::madd_f32x8(x, compute::splat_f32x8(w[6]), a6);
          a7 = compute::madd_f32x8(x, compute::splat_f32x8(w[7]), a7);
        }
        const F32x8 acc[kLanes] = {a0, a1, a2, a3, a4, a5, a6, a7};
        const int lanes = std::min(kLanes, ow - ox);
        float* dst = out + static_cast<std::size_t>(c0) * p +
                     static_cast<std::size_t>(oy) * ow + ox;
        for (int c = 0; c < channels; ++c) {
          const F32x8 v = compute::add_f32x8(
              compute::add_f32x8(zero, acc[c]),
              compute::splat_f32x8(bias != nullptr ? bias[c0 + c] : 0.0f));
          float* row = dst + c * p;
          if (lanes == kLanes) {
            compute::store_f32x8(row, v);
          } else {
            float tail[kLanes];
            compute::store_f32x8(tail, v);
            std::copy_n(tail, lanes, row);
          }
        }
      }
    }
  }
}

// dst[0..n) += src[0..n), element by element.
void add_row(const float* src, float* dst, int n) {
  int x = 0;
  for (; x + kLanes <= n; x += kLanes) {
    compute::store_f32x8(dst + x,
                         compute::add_f32x8(compute::load_f32x8(dst + x),
                                            compute::load_f32x8(src + x)));
  }
  for (; x < n; ++x) dst[x] += src[x];
}

// One sample of conv_input_grad8: `gout` holds the sample's 8 output
// gradient planes, `plane` is scratch for one tap's gradient plane and
// `padded` the sample's zero-bordered gradient. For tap j the plane is
// gemm_a_bt_blocked's element at k = 8: partial q (0..3) is
// madd(G[q], W[j][q], 0), then madd(G[q+4], W[j][q+4], partial); the
// element is 0 + ((s0 + s1) + (s2 + s3)).
void conv_input_grad8_sample(const float* gout, const ConvGeometry& g,
                             const float* weight, float* plane,
                             float* padded) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  const int p = oh * ow;
  const std::size_t ph = static_cast<std::size_t>(g.padded_h());
  const std::size_t pw = static_cast<std::size_t>(g.padded_w());
  const F32x8 zero = compute::splat_f32x8(0.0f);
  const float* g0 = gout;
  const float* g1 = gout + p;
  const float* g2 = gout + 2 * static_cast<std::size_t>(p);
  const float* g3 = gout + 3 * static_cast<std::size_t>(p);
  const float* g4 = gout + 4 * static_cast<std::size_t>(p);
  const float* g5 = gout + 5 * static_cast<std::size_t>(p);
  const float* g6 = gout + 6 * static_cast<std::size_t>(p);
  const float* g7 = gout + 7 * static_cast<std::size_t>(p);
  for (int c = 0; c < g.in_channels; ++c) {
    // col2im adds pixel by pixel, (oy, ox) ascending, so an input element
    // receives tap (ky, kx) from pixel (iy - ky, ix - kx): (ky, kx)
    // descending. Adding whole tap planes in that order keeps it.
    for (int ky = g.kernel_h - 1; ky >= 0; --ky) {
      for (int kx = g.kernel_w - 1; kx >= 0; --kx) {
        const float* w =
            weight +
            ((static_cast<std::size_t>(c) * g.kernel_h + ky) * g.kernel_w +
             kx) * kLanes;
        const F32x8 w0 = compute::splat_f32x8(w[0]);
        const F32x8 w1 = compute::splat_f32x8(w[1]);
        const F32x8 w2 = compute::splat_f32x8(w[2]);
        const F32x8 w3 = compute::splat_f32x8(w[3]);
        const F32x8 w4 = compute::splat_f32x8(w[4]);
        const F32x8 w5 = compute::splat_f32x8(w[5]);
        const F32x8 w6 = compute::splat_f32x8(w[6]);
        const F32x8 w7 = compute::splat_f32x8(w[7]);
        int pix = 0;
        for (; pix + kLanes <= p; pix += kLanes) {
          F32x8 s0 = compute::madd_f32x8(compute::load_f32x8(g0 + pix), w0,
                                         zero);
          F32x8 s1 = compute::madd_f32x8(compute::load_f32x8(g1 + pix), w1,
                                         zero);
          F32x8 s2 = compute::madd_f32x8(compute::load_f32x8(g2 + pix), w2,
                                         zero);
          F32x8 s3 = compute::madd_f32x8(compute::load_f32x8(g3 + pix), w3,
                                         zero);
          s0 = compute::madd_f32x8(compute::load_f32x8(g4 + pix), w4, s0);
          s1 = compute::madd_f32x8(compute::load_f32x8(g5 + pix), w5, s1);
          s2 = compute::madd_f32x8(compute::load_f32x8(g6 + pix), w6, s2);
          s3 = compute::madd_f32x8(compute::load_f32x8(g7 + pix), w7, s3);
          compute::store_f32x8(
              plane + pix,
              compute::add_f32x8(zero,
                                 compute::add_f32x8(compute::add_f32x8(s0, s1),
                                                    compute::add_f32x8(s2, s3))));
        }
        for (; pix < p; ++pix) {
          float s[4];
          for (int q = 0; q < 4; ++q) {
            s[q] = compute::madd(gout[static_cast<std::size_t>(q) * p + pix],
                                 w[q], 0.0f);
          }
          for (int q = 0; q < 4; ++q) {
            s[q] = compute::madd(
                gout[static_cast<std::size_t>(q + 4) * p + pix], w[q + 4],
                s[q]);
          }
          plane[pix] = 0.0f + ((s[0] + s[1]) + (s[2] + s[3]));
        }
        float* dst = padded + (c * ph + ky) * pw + kx;
        for (int oy = 0; oy < oh; ++oy) {
          add_row(plane + static_cast<std::size_t>(oy) * ow, dst + oy * pw,
                  ow);
        }
      }
    }
  }
}

// One 8 x 8 tile of conv_weight_grad: rows are the im2col columns at
// window offsets tap[0..8), columns 8 lanes of the gradient rows
// `grows` (leading dimension ldg), and `tile` holds the 8 x 8 element
// values, updated in place. Every lane runs gemm_at_b_tiled's chain
// (kBlocked false: madd from the old value over the virtual rows
// ascending) or gemm_at_b_blocked's (kBlocked true: madd from 0 over
// each kKc-row panel, the panel's sum then added to the element). The
// rows of the virtual matrix are the samples' windows in (s, oy, ox)
// order.
template <bool kBlocked>
void weight_grad_tile(const float* padded, std::size_t sample_size, int n,
                      const ConvGeometry& g, const std::size_t* tap,
                      const float* grows, int ldg, float* tile) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  const std::size_t pw = static_cast<std::size_t>(g.padded_w());
  const F32x8 zero = compute::splat_f32x8(0.0f);
  F32x8 c0 = compute::load_f32x8(tile);
  F32x8 c1 = compute::load_f32x8(tile + kLanes);
  F32x8 c2 = compute::load_f32x8(tile + 2 * kLanes);
  F32x8 c3 = compute::load_f32x8(tile + 3 * kLanes);
  F32x8 c4 = compute::load_f32x8(tile + 4 * kLanes);
  F32x8 c5 = compute::load_f32x8(tile + 5 * kLanes);
  F32x8 c6 = compute::load_f32x8(tile + 6 * kLanes);
  F32x8 c7 = compute::load_f32x8(tile + 7 * kLanes);
  // The open panel's partial sums (kBlocked) and its row count.
  F32x8 s0 = zero, s1 = zero, s2 = zero, s3 = zero;
  F32x8 s4 = zero, s5 = zero, s6 = zero, s7 = zero;
  int in_panel = 0;
  const auto flush = [&] {
    c0 = compute::add_f32x8(c0, s0);
    c1 = compute::add_f32x8(c1, s1);
    c2 = compute::add_f32x8(c2, s2);
    c3 = compute::add_f32x8(c3, s3);
    c4 = compute::add_f32x8(c4, s4);
    c5 = compute::add_f32x8(c5, s5);
    c6 = compute::add_f32x8(c6, s6);
    c7 = compute::add_f32x8(c7, s7);
    s0 = s1 = s2 = s3 = s4 = s5 = s6 = s7 = zero;
    in_panel = 0;
  };
  const std::size_t t0 = tap[0], t1 = tap[1], t2 = tap[2], t3 = tap[3];
  const std::size_t t4 = tap[4], t5 = tap[5], t6 = tap[6], t7 = tap[7];
  for (int s = 0; s < n; ++s) {
    const float* sample = padded + static_cast<std::size_t>(s) * sample_size;
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        const float* w = sample + oy * pw + ox;
        const F32x8 gv = compute::load_f32x8(grows);
        grows += ldg;
        if constexpr (kBlocked) {
          s0 = compute::madd_f32x8(compute::splat_f32x8(w[t0]), gv, s0);
          s1 = compute::madd_f32x8(compute::splat_f32x8(w[t1]), gv, s1);
          s2 = compute::madd_f32x8(compute::splat_f32x8(w[t2]), gv, s2);
          s3 = compute::madd_f32x8(compute::splat_f32x8(w[t3]), gv, s3);
          s4 = compute::madd_f32x8(compute::splat_f32x8(w[t4]), gv, s4);
          s5 = compute::madd_f32x8(compute::splat_f32x8(w[t5]), gv, s5);
          s6 = compute::madd_f32x8(compute::splat_f32x8(w[t6]), gv, s6);
          s7 = compute::madd_f32x8(compute::splat_f32x8(w[t7]), gv, s7);
          if (++in_panel == compute::kKc) flush();
        } else {
          c0 = compute::madd_f32x8(compute::splat_f32x8(w[t0]), gv, c0);
          c1 = compute::madd_f32x8(compute::splat_f32x8(w[t1]), gv, c1);
          c2 = compute::madd_f32x8(compute::splat_f32x8(w[t2]), gv, c2);
          c3 = compute::madd_f32x8(compute::splat_f32x8(w[t3]), gv, c3);
          c4 = compute::madd_f32x8(compute::splat_f32x8(w[t4]), gv, c4);
          c5 = compute::madd_f32x8(compute::splat_f32x8(w[t5]), gv, c5);
          c6 = compute::madd_f32x8(compute::splat_f32x8(w[t6]), gv, c6);
          c7 = compute::madd_f32x8(compute::splat_f32x8(w[t7]), gv, c7);
        }
      }
    }
  }
  if (kBlocked && in_panel > 0) flush();
  compute::store_f32x8(tile, c0);
  compute::store_f32x8(tile + kLanes, c1);
  compute::store_f32x8(tile + 2 * kLanes, c2);
  compute::store_f32x8(tile + 3 * kLanes, c3);
  compute::store_f32x8(tile + 4 * kLanes, c4);
  compute::store_f32x8(tile + 5 * kLanes, c5);
  compute::store_f32x8(tile + 6 * kLanes, c6);
  compute::store_f32x8(tile + 7 * kLanes, c7);
}

}  // namespace

void pad_sample(const float* src, const ConvGeometry& g, float* dst) {
  const int pw = g.padded_w();
  const std::size_t border_rows = static_cast<std::size_t>(g.pad) * pw;
  for (int c = 0; c < g.in_channels; ++c) {
    float* out = dst + static_cast<std::size_t>(c) * g.padded_h() * pw;
    out = std::fill_n(out, border_rows, 0.0f);
    for (int y = 0; y < g.in_h; ++y) {
      const float* row =
          src + (static_cast<std::size_t>(c) * g.in_h + y) * g.in_w;
      out = std::fill_n(out, g.pad, 0.0f);
      out = std::copy_n(row, g.in_w, out);
      out = std::fill_n(out, g.pad, 0.0f);
    }
    std::fill_n(out, border_rows, 0.0f);
  }
}

std::vector<std::size_t> window_taps(const ConvGeometry& g) {
  std::vector<std::size_t> taps;
  taps.reserve(static_cast<std::size_t>(g.patch_size()));
  for (const std::size_t row : window_rows(g)) {
    for (int kx = 0; kx < g.kernel_w; ++kx) taps.push_back(row + kx);
  }
  return taps;
}

void im2col(const float* input, int n, const ConvGeometry& g, float* out) {
  const std::size_t in_sample =
      static_cast<std::size_t>(g.in_channels) * g.in_h * g.in_w;
  const std::size_t out_sample =
      static_cast<std::size_t>(g.out_pixels()) * g.patch_size();
  const std::vector<std::size_t> rows = window_rows(g);
  for_sample_ranges(n, g, [&](int s0, int s1, float* padded) {
    for (int s = s0; s < s1; ++s) {
      pad_sample(input + s * in_sample, g, padded);
      expand_sample(padded, g, rows, out + s * out_sample);
    }
  });
}

void col2im(const float* cols, int n, const ConvGeometry& g,
            float* grad_input) {
  const std::size_t in_sample =
      static_cast<std::size_t>(g.in_channels) * g.in_h * g.in_w;
  const std::size_t col_sample =
      static_cast<std::size_t>(g.out_pixels()) * g.patch_size();
  const std::vector<std::size_t> rows = window_rows(g);
  for_sample_ranges(n, g, [&](int s0, int s1, float* padded) {
    for (int s = s0; s < s1; ++s) {
      float* sample = grad_input + s * in_sample;
      pad_sample(sample, g, padded);
      const float* sample_cols = cols + s * col_sample;
      if (g.kernel_w == 3) {
        col2im_sample<3>(sample_cols, g, rows, padded);
      } else {
        col2im_sample<0>(sample_cols, g, rows, padded);
      }
      unpad_sample(padded, g, sample);
    }
  });
}

void conv_forward(const float* input, int n, const ConvGeometry& g,
                  const float* weight, int cout, const float* bias,
                  float* out) {
  if (g.stride != 1) {
    throw std::invalid_argument("conv_forward: stride must be 1");
  }
  const std::size_t in_sample =
      static_cast<std::size_t>(g.in_channels) * g.in_h * g.in_w;
  const std::size_t out_sample =
      static_cast<std::size_t>(cout) * g.out_pixels();
  const std::vector<std::size_t> taps = window_taps(g);
  const std::vector<float> panels =
      weight_panels(weight, g.patch_size(), cout);
  for_sample_ranges(n, g, [&](int s0, int s1, float* padded) {
    for (int s = s0; s < s1; ++s) {
      pad_sample(input + s * in_sample, g, padded);
      conv_forward_sample(padded, g, taps, panels.data(), cout, bias,
                          out + s * out_sample);
    }
  });
}

void conv_input_grad8(const float* grad_out, int n, const ConvGeometry& g,
                      const float* weight, float* grad_input) {
  if (g.stride != 1) {
    throw std::invalid_argument("conv_input_grad8: stride must be 1");
  }
  const std::size_t in_sample =
      static_cast<std::size_t>(g.in_channels) * g.in_h * g.in_w;
  const std::size_t out_sample =
      static_cast<std::size_t>(kLanes) * g.out_pixels();
  for_sample_ranges(n, g, [&](int s0, int s1, float* padded) {
    std::vector<float> plane(static_cast<std::size_t>(g.out_pixels()));
    for (int s = s0; s < s1; ++s) {
      std::fill_n(padded, padded_size(g), 0.0f);
      conv_input_grad8_sample(grad_out + s * out_sample, g, weight,
                              plane.data(), padded);
      unpad_sample(padded, g, grad_input + s * in_sample);
    }
  });
}

void conv_weight_grad(const float* input, int n, const ConvGeometry& g,
                      const float* grad_rows, int cout, float* weight_grad) {
  if (g.stride != 1) {
    throw std::invalid_argument("conv_weight_grad: stride must be 1");
  }
  const int k = g.patch_size();
  const int p = g.out_pixels();
  const long long rows = static_cast<long long>(n) * p;
  if (rows == 0 || k == 0 || cout == 0) return;
  const std::size_t in_sample =
      static_cast<std::size_t>(g.in_channels) * g.in_h * g.in_w;
  const std::size_t sample_size = padded_size(g);
  const long long flops = rows * k * cout;
  // gemm_at_b_auto's split: only products that pay for the pool use it.
  const bool parallel = compute::global_threads() > 1 && k >= 32 &&
                        flops >= (1LL << 18);

  // pad_sample writes every element.
  Tensor padded = Tensor::uninitialized({n, static_cast<int>(sample_size)});
  const auto pad = [&](int s0, int s1) {
    for (int s = s0; s < s1; ++s) {
      pad_sample(input + s * in_sample, g, padded.data() + s * sample_size);
    }
  };
  const int threads = compute::global_threads();
  if (parallel && n > 1) {
    compute::global_pool().parallel_for(0, n, (n + threads - 1) / threads,
                                        pad);
  } else {
    pad(0, n);
  }

  // The dispatcher's density probe of A: its first min(rows, 32) rows.
  const std::vector<std::size_t> taps = window_taps(g);
  const int probe = static_cast<int>(std::min<long long>(rows, 32));
  std::size_t nonzero = 0;
  for (int r = 0; r < probe; ++r) {
    const float* w = padded.data() + (r / p) * sample_size +
                     (r % p) / g.out_w() * g.padded_w() + (r % p) % g.out_w();
    for (const std::size_t t : taps) nonzero += w[t] != 0.0f;
  }
  const double density =
      static_cast<double>(nonzero) / (static_cast<double>(probe) * k);
  const bool blocked =
      compute::gemm_at_b_picks_blocked(static_cast<int>(rows), k, cout,
                                       density);

  // Gradient rows padded to whole 8-lane groups when Cout is not.
  const int ldg = (cout + kLanes - 1) / kLanes * kLanes;
  std::vector<float> padded_rows;
  const float* grows = grad_rows;
  if (ldg != cout) {
    padded_rows.assign(static_cast<std::size_t>(rows) * ldg, 0.0f);
    for (long long r = 0; r < rows; ++r) {
      std::copy_n(grad_rows + r * cout, cout, padded_rows.data() + r * ldg);
    }
    grows = padded_rows.data();
  }

  const int row_tiles = (k + kLanes - 1) / kLanes;
  const int col_tiles = ldg / kLanes;
  const auto tiles = [&](int lo, int hi) {
    for (int tile_index = lo; tile_index < hi; ++tile_index) {
      const int i0 = tile_index / col_tiles * kLanes;
      const int j0 = tile_index % col_tiles * kLanes;
      const int mr = std::min(kLanes, k - i0);
      const int nr = std::min(kLanes, cout - j0);
      // Rows past K repeat a real tap; their lanes are dropped.
      std::size_t tap[kLanes];
      for (int r = 0; r < kLanes; ++r) tap[r] = taps[i0 + std::min(r, mr - 1)];
      float tile[kLanes * kLanes] = {};
      for (int r = 0; r < mr; ++r) {
        std::copy_n(weight_grad + static_cast<std::size_t>(i0 + r) * cout + j0,
                    nr, tile + r * kLanes);
      }
      if (blocked) {
        weight_grad_tile<true>(padded.data(), sample_size, n, g, tap,
                               grows + j0, ldg, tile);
      } else {
        weight_grad_tile<false>(padded.data(), sample_size, n, g, tap,
                                grows + j0, ldg, tile);
      }
      for (int r = 0; r < mr; ++r) {
        std::copy_n(tile + r * kLanes, nr,
                    weight_grad + static_cast<std::size_t>(i0 + r) * cout + j0);
      }
    }
  };
  const int tile_count = row_tiles * col_tiles;
  if (parallel && tile_count > 1) {
    compute::global_pool().parallel_for(
        0, tile_count, (tile_count + threads - 1) / threads, tiles);
  } else {
    tiles(0, tile_count);
  }
}

}  // namespace falvolt::tensor
