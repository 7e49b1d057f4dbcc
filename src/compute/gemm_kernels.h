#pragma once
// Float GEMM kernels for the unified compute backend.
//
// Tiers:
//
//   *_naive    — the reference loops (i-k-j with a zero-skip fast path for
//                spike inputs; the seed library's kernels).
//   *_blocked  — cache-blocked: B packed into column panels, register
//                tiling over an MR x NR micro-tile, K sliced into panels
//                of kKc that fit L1/L2.
//   gemm_at_b_tiled
//              — a register-tiled kernel for the conv weight gradient that
//                reproduces the naive tier's bits faster.
//   gemm_auto* — dispatch: picks a tier by problem shape (and, where the
//                tiers sum in different orders, by input density), and
//                splits output rows across the global thread pool when the
//                problem is big enough to pay for it.
//
// Determinism: every kernel partitions only output rows (or output tiles)
// and keeps each element's accumulation schedule fixed, so results are
// bit-identical for any thread count. Across tiers:
//
//   - gemm_blocked equals gemm_naive bit for bit when K <= kKc and
//     `accumulate` is false: each output element is then one
//     multiply-add chain over k ascending in both (a zero-skipped term
//     adds exactly nothing for finite B). For K > kKc the blocked tier
//     sums K panels as separate partials and agrees only to tolerance.
//   - gemm_at_b_tiled equals gemm_at_b_naive bit for bit (same chain,
//     starting from C), while gemm_at_b_blocked sums in panels.
//
// gemm_at_b_tiled pins every multiply-add with compute/simd.h's madd(),
// which rounds as the compiler's contraction of the other tiers'
// `c += a * b` does: fused in optimised FMA builds, product then add
// elsewhere.
//
// Conv2d's float path reproduces these tiers' per-element schedules
// without calling them or building an im2col matrix (tensor/im2col.h):
// its direct forward kernel is gemm_blocked's chain for K <= kKc, its
// weight gradient is gemm_at_b_tiled's chain or gemm_at_b_blocked's
// kKc-row panels, whichever gemm_at_b_picks_blocked picks for the im2col
// matrix, and its fused input gradient at Cout = 8 is
// gemm_a_bt_blocked's four-partial schedule followed by col2im's add
// order.
//
// tensor::gemm / gemm_at_b / gemm_a_bt are thin wrappers over the auto
// dispatchers; call the explicit tiers directly only in benches, tests
// and layers that split one product into blocks (Conv2d).

#include <cstddef>

namespace falvolt::compute {

/// K panel of the blocked tier: one packed B panel is kKc x 8 floats
/// (8 KB), resident in L1 while the micro-kernel streams over it.
inline constexpr int kKc = 256;

// ---------------------------------------------------------------- naive

/// C[m x n] = A[m x k] * B[k x n] (row-major). `accumulate` adds into C.
void gemm_naive(const float* a, const float* b, float* c, int m, int k,
                int n, bool accumulate = false);

/// C[m x n] = A^T * B with A stored [k x m].
void gemm_at_b_naive(const float* a, const float* b, float* c, int k, int m,
                     int n, bool accumulate = false);

/// C[m x n] = A * B^T with B stored [n x k].
void gemm_a_bt_naive(const float* a, const float* b, float* c, int m, int k,
                     int n, bool accumulate = false);

// --------------------------------------------------------------- blocked

/// Cache-blocked C = A * B. `threads` caps how many global-pool workers
/// share the output rows (<= 1 runs serial); results are bit-identical
/// for any count.
void gemm_blocked(const float* a, const float* b, float* c, int m, int k,
                  int n, bool accumulate = false, int threads = 1);

/// Cache-blocked C = A^T * B (A stored [k x m]); transposes A into a
/// scratch buffer, then runs the blocked kernel.
void gemm_at_b_blocked(const float* a, const float* b, float* c, int k,
                       int m, int n, bool accumulate = false,
                       int threads = 1);

/// Cache-blocked C = A * B^T (B stored [n x k]): dot-product tiling, both
/// operands streamed along contiguous k.
void gemm_a_bt_blocked(const float* a, const float* b, float* c, int m,
                       int k, int n, bool accumulate = false,
                       int threads = 1);

// ---------------------------------------------------------- shape-specific

/// C[m x n] = A^T * B (A stored [k x m]) on dense 8x8 register tiles, with
/// gemm_at_b_naive's per-element schedule: a multiply-add chain over k
/// ascending that starts from C (from 0 without `accumulate`). Unlike the
/// naive kernel it splits across the pool by output tiles.
void gemm_at_b_tiled(const float* a, const float* b, float* c, int k, int m,
                     int n, bool accumulate = false, int threads = 1);

// --------------------------------------------------------------- dispatch

/// Dispatchers used by tensor::gemm and friends, parallel across the
/// global pool when large:
///   - gemm_auto: blocked for every K <= kKc (bitwise equal to naive
///     there, and much faster on spike inputs too); above kKc, naive for
///     small or sparse A and blocked for large dense A.
///   - gemm_at_b_auto: transpose + blocked for large dense A, else the
///     tiled kernel. The density rule picks a summation order, so it
///     stays even though the tiled kernel is faster on dense A as well.
///   - gemm_a_bt_auto: blocked when gemm_a_bt_picks_blocked, else naive.
void gemm_auto(const float* a, const float* b, float* c, int m, int k,
               int n, bool accumulate = false);
void gemm_at_b_auto(const float* a, const float* b, float* c, int k, int m,
                    int n, bool accumulate = false);
void gemm_a_bt_auto(const float* a, const float* b, float* c, int m, int k,
                    int n, bool accumulate = false);

/// True when gemm_at_b_auto runs an A^T * B product (A stored [k x m],
/// B [k x n]) on the blocked tier, given `density`, the nonzero share of
/// A's first min(k, 32) rows. conv_weight_grad (tensor/im2col.h) asks
/// for an im2col matrix it never builds.
bool gemm_at_b_picks_blocked(int k, int m, int n, double density);

/// True when gemm_a_bt_auto runs an [m x k] * [n x k]^T product on the
/// blocked tier. A caller that splits such a product into row blocks asks
/// once for the whole product, so every block keeps its bits.
bool gemm_a_bt_picks_blocked(int m, int k, int n);

}  // namespace falvolt::compute
