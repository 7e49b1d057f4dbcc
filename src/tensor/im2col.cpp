#include "tensor/im2col.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "compute/thread_pool.h"

namespace falvolt::tensor {

namespace {

// Samples split across the global pool in chunks of at least this many
// im2col elements; smaller calls stay on the calling thread.
constexpr std::size_t kGrainElements = std::size_t{1} << 16;

int padded_h(const ConvGeometry& g) { return g.in_h + 2 * g.pad; }
int padded_w(const ConvGeometry& g) { return g.in_w + 2 * g.pad; }

std::size_t padded_size(const ConvGeometry& g) {
  return static_cast<std::size_t>(g.in_channels) * padded_h(g) * padded_w(g);
}

// Zero-bordered copy of one (C, H, W) sample: C planes of
// (H + 2 pad) x (W + 2 pad). Every element of `dst` is written, so one
// buffer serves sample after sample without clearing.
void pad_sample(const float* src, const ConvGeometry& g, float* dst) {
  const int pw = padded_w(g);
  const std::size_t border_rows = static_cast<std::size_t>(g.pad) * pw;
  for (int c = 0; c < g.in_channels; ++c) {
    float* out = dst + static_cast<std::size_t>(c) * padded_h(g) * pw;
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

// Copy the interior of a padded sample back to (C, H, W).
void unpad_sample(const float* src, const ConvGeometry& g, float* dst) {
  const int pw = padded_w(g);
  for (int c = 0; c < g.in_channels; ++c) {
    const float* plane = src + static_cast<std::size_t>(c) * padded_h(g) * pw;
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
  const std::size_t pw = static_cast<std::size_t>(padded_w(g));
  std::vector<std::size_t> rows;
  rows.reserve(static_cast<std::size_t>(g.in_channels) * g.kernel_h);
  for (int c = 0; c < g.in_channels; ++c) {
    for (int ky = 0; ky < g.kernel_h; ++ky) {
      rows.push_back((static_cast<std::size_t>(c) * padded_h(g) + ky) * pw);
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
  const std::size_t pw = static_cast<std::size_t>(padded_w(g));
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

// Adds one sample's im2col-shaped gradient into its padded copy, output
// pixel by output pixel ((oy, ox) ascending), so every element receives
// its terms in that order. Out-of-image taps land in the padding.
template <int KW>
void col2im_sample(const float* cols, const ConvGeometry& g,
                   const std::vector<std::size_t>& rows, float* padded) {
  const int kw = KW > 0 ? KW : g.kernel_w;
  const std::size_t pw = static_cast<std::size_t>(padded_w(g));
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
    const std::unique_ptr<float[]> padded(new float[padded_size(g)]);
    body(s0, s1, padded.get());
  };
  if (n > grain && compute::global_threads() > 1) {
    compute::global_pool().parallel_for(0, n, grain, run);
  } else if (n > 0) {
    run(0, n);
  }
}

}  // namespace

void im2col(const float* input, int n, const ConvGeometry& g, float* out) {
  const std::size_t in_sample =
      static_cast<std::size_t>(g.in_channels) * g.in_h * g.in_w;
  const std::size_t out_sample =
      static_cast<std::size_t>(g.out_pixels()) * g.patch_size();
  const std::vector<std::size_t> rows = window_rows(g);
  for_sample_ranges(n, g, [&](int s0, int s1, float* padded) {
    for (int s = s0; s < s1; ++s) {
      pad_sample(input + s * in_sample, g, padded);
      float* sample_cols = out + s * out_sample;
      if (g.kernel_w == 3) {  // the model zoo's kernels
        im2col_sample<3>(padded, g, rows, sample_cols);
      } else {
        im2col_sample<0>(padded, g, rows, sample_cols);
      }
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

}  // namespace falvolt::tensor
