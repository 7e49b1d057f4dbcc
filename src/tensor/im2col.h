#pragma once
// im2col / col2im lowering for 2D convolution.
//
// A convolution with Cin input channels, KhxKw kernel, stride S and padding
// P over an HxW input becomes a GEMM whose A matrix has one row per output
// pixel and K = Cin*Kh*Kw columns. This is also exactly how the layer's
// weights are laid onto the systolic array: the GEMM's B matrix is
// [K x Cout], and element (k, m) of B maps to PE(k mod N, m mod N).

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
};

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

}  // namespace falvolt::tensor
