#include "tensor/gemm.h"

#include <stdexcept>

#include "compute/gemm_kernels.h"

namespace falvolt::tensor {

// The tensor-level entry points are thin wrappers over the unified
// compute backend's auto dispatchers (see compute/gemm_kernels.h for
// the tier rules). Linear and the float GEMM engine route through here.

void gemm(const float* a, const float* b, float* c, int m, int k, int n,
          bool accumulate) {
  compute::gemm_auto(a, b, c, m, k, n, accumulate);
}

void gemm_at_b(const float* a, const float* b, float* c, int k, int m, int n,
               bool accumulate) {
  compute::gemm_at_b_auto(a, b, c, k, m, n, accumulate);
}

void gemm_a_bt(const float* a, const float* b, float* c, int m, int k, int n,
               bool accumulate) {
  compute::gemm_a_bt_auto(a, b, c, m, k, n, accumulate);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(0)) {
    throw std::invalid_argument("matmul: incompatible shapes " +
                                shape_str(a.shape()) + " x " +
                                shape_str(b.shape()));
  }
  Tensor c({a.dim(0), b.dim(1)});
  gemm(a.data(), b.data(), c.data(), a.dim(0), a.dim(1), b.dim(1));
  return c;
}

}  // namespace falvolt::tensor
