#pragma once
// im2col / col2im lowering for 2D convolution, and the direct kernels
// that compute the same bits without the lowered matrix.
//
// A convolution with Cin input channels, KhxKw kernel, stride S and padding
// P over an HxW input becomes a GEMM whose A matrix has one row per output
// pixel and K = Cin*Kh*Kw columns. This is also exactly how the layer's
// weights are laid onto the systolic array: the GEMM's B matrix is
// [K x Cout], and element (k, m) of B maps to PE(k mod N, m mod N).
//
// The direct kernels read that A matrix in place: row (oy, ox) is the
// window at offset oy * padded_w + ox of a sample's zero-bordered copy,
// and column (c, ky, kx) the tap at window_taps(g)[column] from it.

#include <cstddef>
#include <vector>

#include "tensor/tensor.h"

namespace falvolt::tensor {

/// Static geometry of a conv lowered to GEMM.
struct ConvGeometry {
  int in_channels = 0;
  int in_h = 0;
  int in_w = 0;
  int kernel_h = 0;
  int kernel_w = 0;
  int stride = 1;
  int pad = 0;

  int out_h() const { return (in_h + 2 * pad - kernel_h) / stride + 1; }
  int out_w() const { return (in_w + 2 * pad - kernel_w) / stride + 1; }
  /// GEMM K dimension.
  int patch_size() const { return in_channels * kernel_h * kernel_w; }
  /// GEMM M dimension per sample.
  int out_pixels() const { return out_h() * out_w(); }
  /// Plane size of a sample's zero-bordered copy.
  int padded_h() const { return in_h + 2 * pad; }
  int padded_w() const { return in_w + 2 * pad; }
};

/// Writes the zero-bordered copy of one (C,H,W) sample: C planes of
/// padded_h x padded_w. Every element of `dst` is written, so one buffer
/// serves sample after sample without clearing.
void pad_sample(const float* src, const ConvGeometry& g, float* dst);

/// Offset of every im2col column (c, ky, kx), in column order, from a
/// window's origin in the zero-bordered copy.
std::vector<std::size_t> window_taps(const ConvGeometry& g);

/// Expand `n` contiguous (C,H,W) samples to the im2col matrix
/// [n * out_pixels x patch_size]; sample s fills rows [s * out_pixels,
/// (s + 1) * out_pixels). Every element of `out` is written, and
/// out-of-image taps read as 0 (zero padding). Each sample is read from a
/// zero-bordered copy, and large batches split across the global pool.
void im2col(const float* input, int n, const ConvGeometry& g, float* out);

/// Reverse scatter for `n` samples: add an im2col-shaped gradient
/// [n * out_pixels x patch_size] into the (C,H,W) input gradients, on top
/// of what they already hold (pre-zero them to start fresh). Every input
/// element receives its terms in ascending output-pixel order (oy, then
/// ox), so the sums do not depend on the batch split.
void col2im(const float* cols, int n, const ConvGeometry& g,
            float* grad_input);

/// Direct stride-1 convolution of `n` (C,H,W) samples with the GEMM
/// weights [patch_size x cout] into (cout, out_h, out_w) samples. Each
/// output is (0 + acc) + bias[c] (+ 0 when `bias` is null), where acc is
/// one madd chain over k ascending from 0: exactly what the blocked GEMM
/// on the im2col matrix and the NCHW repack give for patch_size <=
/// compute::kKc. Vectorized over 8 output pixels of a row with one
/// accumulator per output channel. Samples split across the global pool
/// as im2col splits them. Throws std::invalid_argument unless g.stride is
/// 1, as do conv_input_grad8 and conv_weight_grad.
void conv_forward(const float* input, int n, const ConvGeometry& g,
                  const float* weight, int cout, const float* bias,
                  float* out);

/// Weight gradient of a stride-1 convolution: adds A^T G into
/// weight_grad [patch_size x cout], where A is the im2col matrix of the
/// `n` (C,H,W) samples [n * out_pixels x patch_size], read in place from
/// their zero-bordered copies, and G the pixel-major output gradients
/// [n * out_pixels x cout]. Each element gets the bits that
/// tensor::gemm_at_b(A, G, weight_grad, ..., accumulate) gives: the
/// schedule compute::gemm_at_b_picks_blocked picks from the shape and
/// the nonzero share of A's first 32 rows, either one madd chain from the
/// old value over the rows ascending (gemm_at_b_tiled) or one chain from
/// 0 per kKc-row panel, each panel's sum added to the element
/// (gemm_at_b_blocked). 8 x 8 tiles of weight_grad split across the
/// global pool; a tile's accumulators stay in registers over a sample.
void conv_weight_grad(const float* input, int n, const ConvGeometry& g,
                      const float* grad_rows, int cout, float* weight_grad);

/// Input gradient of a stride-1 convolution with 8 output channels:
/// writes every element of the (C,H,W) gradients, each the sum that
/// col2im adds into a zeroed gradient for the im2col-shaped gradient
/// G W^T that compute::gemm_a_bt_blocked gives (G: the (8, out_h, out_w)
/// output gradients as rows of 8, W: the [patch_size x 8] GEMM weights).
/// So `grad_input` need not be initialized. Per sample and tap (c, ky,
/// kx), in (ky, kx)-descending order, it computes the tap's gradient
/// plane with that kernel's four-partial schedule, vectorized over
/// pixels, and adds it shifted into a zeroed zero-bordered scratch: every
/// input element gets its terms in col2im's (oy, ox)-ascending order.
void conv_input_grad8(const float* grad_out, int n, const ConvGeometry& g,
                      const float* weight, float* grad_input);

}  // namespace falvolt::tensor
