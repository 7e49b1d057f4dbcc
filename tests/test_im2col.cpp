#include "tensor/im2col.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/rng.h"
#include "tensor/gemm.h"

namespace falvolt::tensor {
namespace {

// Direct convolution reference (stride 1).
Tensor ref_conv(const Tensor& input, const Tensor& weight,
                const ConvGeometry& g, int out_channels) {
  Tensor out({out_channels, g.out_h(), g.out_w()});
  for (int oc = 0; oc < out_channels; ++oc) {
    for (int oy = 0; oy < g.out_h(); ++oy) {
      for (int ox = 0; ox < g.out_w(); ++ox) {
        double acc = 0.0;
        int col = 0;
        for (int c = 0; c < g.in_channels; ++c) {
          for (int ky = 0; ky < g.kernel_h; ++ky) {
            for (int kx = 0; kx < g.kernel_w; ++kx, ++col) {
              const int iy = oy * g.stride + ky - g.pad;
              const int ix = ox * g.stride + kx - g.pad;
              if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) continue;
              acc += static_cast<double>(
                         input[(static_cast<std::size_t>(c) * g.in_h + iy) *
                                   g.in_w +
                               ix]) *
                     weight.at2(col, oc);
            }
          }
        }
        out[(static_cast<std::size_t>(oc) * g.out_h() + oy) * g.out_w() +
            ox] = static_cast<float>(acc);
      }
    }
  }
  return out;
}

ConvGeometry make_geom(int c, int h, int w, int kernel, int pad) {
  ConvGeometry g;
  g.in_channels = c;
  g.in_h = h;
  g.in_w = w;
  g.kernel_h = kernel;
  g.kernel_w = kernel;
  g.stride = 1;
  g.pad = pad;
  return g;
}

TEST(Im2col, GeometryMath) {
  const ConvGeometry g = make_geom(3, 16, 16, 3, 1);
  EXPECT_EQ(g.out_h(), 16);
  EXPECT_EQ(g.out_w(), 16);
  EXPECT_EQ(g.patch_size(), 27);
  EXPECT_EQ(g.out_pixels(), 256);
}

TEST(Im2col, NoPadShrinksOutput) {
  const ConvGeometry g = make_geom(1, 5, 5, 3, 0);
  EXPECT_EQ(g.out_h(), 3);
  EXPECT_EQ(g.out_w(), 3);
}

TEST(Im2col, IdentityKernelExtractsCenter) {
  const ConvGeometry g = make_geom(1, 4, 4, 1, 0);
  Tensor in({1, 4, 4});
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<float>(i);
  Tensor cols({g.out_pixels(), g.patch_size()});
  im2col(in.data(), 1, g, cols.data());
  for (int i = 0; i < 16; ++i) EXPECT_EQ(cols[i], static_cast<float>(i));
}

TEST(Im2col, PaddingReadsZero) {
  const ConvGeometry g = make_geom(1, 2, 2, 3, 1);
  Tensor in({1, 2, 2}, {1, 2, 3, 4});
  Tensor cols({g.out_pixels(), g.patch_size()});
  im2col(in.data(), 1, g, cols.data());
  // Output pixel (0,0): its 3x3 window's top row is entirely padding.
  EXPECT_EQ(cols.at2(0, 0), 0.0f);
  EXPECT_EQ(cols.at2(0, 1), 0.0f);
  EXPECT_EQ(cols.at2(0, 4), 1.0f);  // window center = input (0,0)
}

TEST(Im2col, GemmEquivalentToDirectConv) {
  common::Rng rng(21);
  const ConvGeometry g = make_geom(2, 8, 8, 3, 1);
  const int out_channels = 4;
  Tensor in({2, 8, 8});
  for (auto& v : in) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  Tensor w({g.patch_size(), out_channels});
  for (auto& v : w) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  Tensor cols({g.out_pixels(), g.patch_size()});
  im2col(in.data(), 1, g, cols.data());
  const Tensor prod = matmul(cols, w);  // [pixels x out_channels]

  const Tensor ref = ref_conv(in, w, g, out_channels);
  for (int oc = 0; oc < out_channels; ++oc) {
    for (int pix = 0; pix < g.out_pixels(); ++pix) {
      EXPECT_NEAR(prod.at2(pix, oc),
                  ref[static_cast<std::size_t>(oc) * g.out_pixels() + pix],
                  1e-4f);
    }
  }
}

TEST(Im2col, Col2imIsAdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> for all x, y (adjoint property that
  // guarantees the conv backward pass is the true gradient).
  common::Rng rng(22);
  const ConvGeometry g = make_geom(2, 6, 5, 3, 1);
  Tensor x({2, 6, 5});
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  Tensor y({g.out_pixels(), g.patch_size()});
  for (auto& v : y) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  Tensor cols({g.out_pixels(), g.patch_size()});
  im2col(x.data(), 1, g, cols.data());
  double lhs = 0.0;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    lhs += static_cast<double>(cols[i]) * y[i];
  }

  Tensor back({2, 6, 5});
  col2im(y.data(), 1, g, back.data());
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    rhs += static_cast<double>(x[i]) * back[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Im2col, Col2imAccumulates) {
  const ConvGeometry g = make_geom(1, 3, 3, 1, 0);
  Tensor y({9, 1}, 1.0f);
  Tensor grad({1, 3, 3}, 5.0f);  // pre-existing content must be kept
  col2im(y.data(), 1, g, grad.data());
  for (std::size_t i = 0; i < grad.size(); ++i) EXPECT_EQ(grad[i], 6.0f);
}

// Per-sample loops with a bounds check per tap: what im2col (gather image
// taps into cols) and col2im (scatter-add cols into the image) must
// reproduce exactly for any stride, padding and kernel width.
void tap_by_tap(float* image, float* cols, const ConvGeometry& g,
                bool scatter) {
  int row = 0;
  for (int oy = 0; oy < g.out_h(); ++oy) {
    for (int ox = 0; ox < g.out_w(); ++ox, ++row) {
      int col = 0;
      for (int c = 0; c < g.in_channels; ++c) {
        for (int ky = 0; ky < g.kernel_h; ++ky) {
          for (int kx = 0; kx < g.kernel_w; ++kx, ++col) {
            const int iy = oy * g.stride + ky - g.pad;
            const int ix = ox * g.stride + kx - g.pad;
            float& tap =
                cols[static_cast<std::size_t>(row) * g.patch_size() + col];
            if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) {
              if (!scatter) tap = 0.0f;
              continue;
            }
            const std::size_t at =
                (static_cast<std::size_t>(c) * g.in_h + iy) * g.in_w + ix;
            if (scatter) {
              image[at] += tap;
            } else {
              tap = image[at];
            }
          }
        }
      }
    }
  }
}

TEST(Im2col, BatchMatchesTapByTapLoops) {
  common::Rng rng(23);
  const int n = 3;
  for (const int kernel : {1, 2, 3}) {
    for (const int stride : {1, 2}) {
      for (const int pad : {0, 1, 2}) {
        SCOPED_TRACE("kernel=" + std::to_string(kernel) + " stride=" +
                     std::to_string(stride) + " pad=" + std::to_string(pad));
        ConvGeometry g = make_geom(2, 7, 6, kernel, pad);
        g.stride = stride;
        const std::size_t in_size =
            static_cast<std::size_t>(g.in_channels) * g.in_h * g.in_w;
        const std::size_t col_size =
            static_cast<std::size_t>(g.out_pixels()) * g.patch_size();
        Tensor x({n, g.in_channels, g.in_h, g.in_w});
        for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
        Tensor cols({n * g.out_pixels(), g.patch_size()}, 9.0f);
        im2col(x.data(), n, g, cols.data());
        Tensor want(cols.shape());
        for (int s = 0; s < n; ++s) {
          tap_by_tap(x.data() + s * in_size, want.data() + s * col_size, g,
                     false);
        }
        EXPECT_EQ(std::memcmp(cols.data(), want.data(),
                              sizeof(float) * cols.size()),
                  0);

        // col2im adds on top of existing content, each element's terms in
        // output-pixel order.
        Tensor y(cols.shape());
        for (auto& v : y) v = static_cast<float>(rng.uniform(-1.0, 1.0));
        Tensor grad = x;
        col2im(y.data(), n, g, grad.data());
        Tensor grad_want = x;
        for (int s = 0; s < n; ++s) {
          tap_by_tap(grad_want.data() + s * in_size,
                     y.data() + s * col_size, g, true);
        }
        EXPECT_EQ(std::memcmp(grad.data(), grad_want.data(),
                              sizeof(float) * grad.size()),
                  0);
      }
    }
  }
}

}  // namespace
}  // namespace falvolt::tensor
