#pragma once
// Float GEMM entry points:
//   C[M x N] = A[M x K] * B[K x N]  (+ accumulate variants)
// for the FC layers, the float GEMM engine, and every product a conv
// would run on its im2col matrix (the conv kernels in tensor/im2col.h
// reproduce these entry points' bits without building that matrix). The
// implementations delegate to the unified compute backend
// (compute/gemm_kernels.h), whose dispatchers pick a kernel tier by
// problem shape (and, where tiers round differently, by input density)
// and split large problems across the thread pool.

#include <cstddef>

#include "tensor/tensor.h"

namespace falvolt::tensor {

/// C = A * B. A is MxK, B is KxN, C is MxN; all row-major raw pointers.
/// `accumulate` adds into C instead of overwriting it.
void gemm(const float* a, const float* b, float* c, int m, int k, int n,
          bool accumulate = false);

/// C = A^T * B where A is KxM (so A^T is MxK). Used for weight gradients.
void gemm_at_b(const float* a, const float* b, float* c, int k, int m, int n,
               bool accumulate = false);

/// C = A * B^T where B is NxK (so B^T is KxN). Used for input gradients.
void gemm_a_bt(const float* a, const float* b, float* c, int m, int k, int n,
               bool accumulate = false);

/// Tensor convenience wrapper: returns A(MxK) * B(KxN).
Tensor matmul(const Tensor& a, const Tensor& b);

}  // namespace falvolt::tensor
