#pragma once
// Minimal SIMD helpers for the integer and float hot paths.
//
// The faulty-GEMM engine works on groups of 8 adjacent output columns:
// with AVX2 one 256-bit register holds the 8 int32 column accumulators,
// so each nonzero input position is a single load+add (plus a clamp and,
// at a fault event, an AND/OR mask in the engine's exact walk). The
// scalar fallback of the plain-add path keeps the exact same 8-lane
// shape (and therefore the same add order per lane), so results are
// bit-identical whether or not AVX2 is compiled in.
//
// The float helpers below serve hand-vectorized kernels (GEMM tiers,
// direct convolution, PLIF) that must reproduce scalar loops bit for
// bit. Those loops accumulate with `c += a * b`, which GCC (at -O2 and
// above) and Clang contract into one fused multiply-add when the target
// has FMA; GCC at -O0 rounds the product first. madd() and madd_f32x8()
// pin that same choice, so a kernel built from them matches the loops in
// every build.
// Writing the expression out is not enough: in `a * b + c * d` the
// compiler may fuse either product. (GCC at -O1/-Og does not contract
// either; the CMake build types use -O0, -O2, -O3 or -Os.)

#include <cstddef>
#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#if defined(__FMA__) && (defined(__clang__) || defined(__OPTIMIZE__))
#define FALVOLT_FUSED_MADD 1
#else
#define FALVOLT_FUSED_MADD 0
#endif

namespace falvolt::compute {

/// a * b + c with the rounding the library's scalar loops get: one fused
/// multiply-add where the compiler contracts them, else a rounded product
/// then an add.
inline float madd(float a, float b, float c) {
#if FALVOLT_FUSED_MADD
  return __builtin_fmaf(a, b, c);
#else
  return a * b + c;
#endif
}

/// The double twin of madd(), for `double` accumulations.
inline double madd(double a, double b, double c) {
#if FALVOLT_FUSED_MADD
  return __builtin_fma(a, b, c);
#else
  return a * b + c;
#endif
}

/// c - a * b as the scalar loops round it: one fused negated multiply-add
/// where the compiler contracts them, else a rounded product subtracted.
inline float nmadd(float a, float b, float c) {
#if FALVOLT_FUSED_MADD
  return __builtin_fmaf(-a, b, c);
#else
  return c - a * b;
#endif
}

/// The double twin of nmadd().
inline double nmadd(double a, double b, double c) {
#if FALVOLT_FUSED_MADD
  return __builtin_fma(-a, b, c);
#else
  return c - a * b;
#endif
}

/// Eight float lanes: one AVX register, or a plain array in the portable
/// build (same lanes, same per-lane operations). M32x8 is a lane mask
/// from a compare, consumed by select_f32x8.
#if defined(__AVX2__)
using F32x8 = __m256;
using M32x8 = __m256;
inline F32x8 load_f32x8(const float* p) { return _mm256_loadu_ps(p); }
inline void store_f32x8(float* p, F32x8 v) { _mm256_storeu_ps(p, v); }
inline F32x8 splat_f32x8(float v) { return _mm256_set1_ps(v); }
inline F32x8 add_f32x8(F32x8 a, F32x8 b) { return _mm256_add_ps(a, b); }
inline F32x8 sub_f32x8(F32x8 a, F32x8 b) { return _mm256_sub_ps(a, b); }
inline F32x8 mul_f32x8(F32x8 a, F32x8 b) { return _mm256_mul_ps(a, b); }
/// Lane-wise |a| (clears the sign bit, as std::fabs does).
inline F32x8 abs_f32x8(F32x8 a) {
  return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), a);
}
/// Lane-wise -a (flips the sign bit, as the unary minus does).
inline F32x8 neg_f32x8(F32x8 a) {
  return _mm256_xor_ps(_mm256_set1_ps(-0.0f), a);
}
/// Lane-wise madd(a, b, c).
inline F32x8 madd_f32x8(F32x8 a, F32x8 b, F32x8 c) {
#if FALVOLT_FUSED_MADD
  return _mm256_fmadd_ps(a, b, c);
#else
  return _mm256_add_ps(_mm256_mul_ps(a, b), c);
#endif
}
/// Lanes where a > b (false where either is NaN, as the scalar `>`).
inline M32x8 gt_f32x8(F32x8 a, F32x8 b) {
  return _mm256_cmp_ps(a, b, _CMP_GT_OQ);
}
/// Per lane: `mask ? a : b`.
inline F32x8 select_f32x8(M32x8 mask, F32x8 a, F32x8 b) {
  return _mm256_blendv_ps(b, a, mask);
}
/// The even and the odd entries of the 16 floats lo:hi, in order.
inline void deinterleave_f32x8(F32x8 lo, F32x8 hi, F32x8& even,
                               F32x8& odd) {
  // Per 128-bit half: [lo0 lo2 hi0 hi2 | lo4 lo6 hi4 hi6]; the 64-bit
  // permute puts the lo pairs first.
  const __m256 e = _mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0));
  const __m256 o = _mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(3, 1, 3, 1));
  even = _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(e),
                                                _MM_SHUFFLE(3, 1, 2, 0)));
  odd = _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(o),
                                               _MM_SHUFFLE(3, 1, 2, 0)));
}
/// Every entry of v twice, in order: lo = [v0 v0 v1 v1 .. v3 v3],
/// hi = [v4 v4 .. v7 v7].
inline void duplicate_f32x8(F32x8 v, F32x8& lo, F32x8& hi) {
  const __m256 l = _mm256_unpacklo_ps(v, v);  // [v0 v0 v1 v1 | v4 v4 v5 v5]
  const __m256 h = _mm256_unpackhi_ps(v, v);  // [v2 v2 v3 v3 | v6 v6 v7 v7]
  lo = _mm256_permute2f128_ps(l, h, 0x20);
  hi = _mm256_permute2f128_ps(l, h, 0x31);
}
/// Transposes the 8 x 8 matrix whose row i is r[i]: afterwards r[i][j]
/// holds what r[j][i] held.
inline void transpose_f32x8(F32x8 r[8]) {
  // Per 128-bit half, pairs of rows interleaved, then quads.
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 q0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 q1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 q2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 q3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 q4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 q5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 q6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 q7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(q0, q4, 0x20);
  r[1] = _mm256_permute2f128_ps(q1, q5, 0x20);
  r[2] = _mm256_permute2f128_ps(q2, q6, 0x20);
  r[3] = _mm256_permute2f128_ps(q3, q7, 0x20);
  r[4] = _mm256_permute2f128_ps(q0, q4, 0x31);
  r[5] = _mm256_permute2f128_ps(q1, q5, 0x31);
  r[6] = _mm256_permute2f128_ps(q2, q6, 0x31);
  r[7] = _mm256_permute2f128_ps(q3, q7, 0x31);
}
#else
struct F32x8 {
  float v[8];
};
struct M32x8 {
  bool v[8];
};
inline F32x8 load_f32x8(const float* p) {
  F32x8 r{};
  for (int l = 0; l < 8; ++l) r.v[l] = p[l];
  return r;
}
inline void store_f32x8(float* p, F32x8 v) {
  for (int l = 0; l < 8; ++l) p[l] = v.v[l];
}
inline F32x8 splat_f32x8(float v) {
  F32x8 r{};
  for (int l = 0; l < 8; ++l) r.v[l] = v;
  return r;
}
inline F32x8 add_f32x8(F32x8 a, F32x8 b) {
  for (int l = 0; l < 8; ++l) a.v[l] += b.v[l];
  return a;
}
inline F32x8 sub_f32x8(F32x8 a, F32x8 b) {
  for (int l = 0; l < 8; ++l) a.v[l] -= b.v[l];
  return a;
}
inline F32x8 mul_f32x8(F32x8 a, F32x8 b) {
  for (int l = 0; l < 8; ++l) a.v[l] *= b.v[l];
  return a;
}
inline F32x8 abs_f32x8(F32x8 a) {
  for (int l = 0; l < 8; ++l) a.v[l] = __builtin_fabsf(a.v[l]);
  return a;
}
inline F32x8 neg_f32x8(F32x8 a) {
  for (int l = 0; l < 8; ++l) a.v[l] = -a.v[l];
  return a;
}
inline F32x8 madd_f32x8(F32x8 a, F32x8 b, F32x8 c) {
  for (int l = 0; l < 8; ++l) c.v[l] = madd(a.v[l], b.v[l], c.v[l]);
  return c;
}
inline M32x8 gt_f32x8(F32x8 a, F32x8 b) {
  M32x8 r{};
  for (int l = 0; l < 8; ++l) r.v[l] = a.v[l] > b.v[l];
  return r;
}
inline F32x8 select_f32x8(M32x8 mask, F32x8 a, F32x8 b) {
  for (int l = 0; l < 8; ++l) a.v[l] = mask.v[l] ? a.v[l] : b.v[l];
  return a;
}
inline void deinterleave_f32x8(F32x8 lo, F32x8 hi, F32x8& even,
                               F32x8& odd) {
  for (int l = 0; l < 4; ++l) {
    even.v[l] = lo.v[2 * l];
    odd.v[l] = lo.v[2 * l + 1];
    even.v[l + 4] = hi.v[2 * l];
    odd.v[l + 4] = hi.v[2 * l + 1];
  }
}
inline void duplicate_f32x8(F32x8 v, F32x8& lo, F32x8& hi) {
  for (int l = 0; l < 4; ++l) {
    lo.v[2 * l] = lo.v[2 * l + 1] = v.v[l];
    hi.v[2 * l] = hi.v[2 * l + 1] = v.v[l + 4];
  }
}
inline void transpose_f32x8(F32x8 r[8]) {
  for (int i = 0; i < 8; ++i) {
    for (int j = i + 1; j < 8; ++j) {
      const float v = r[i].v[j];
      r[i].v[j] = r[j].v[i];
      r[j].v[i] = v;
    }
  }
}
#endif

/// Four double lanes: one AVX register, or a plain array in the portable
/// build. They hold per-lane `double` terms and chains built from float
/// lanes; every float converts to double exactly, and so does the product
/// of two of them.
#if defined(__AVX2__)
using F64x4 = __m256d;
inline void store_f64x4(double* p, F64x4 v) { _mm256_storeu_pd(p, v); }
inline F64x4 splat_f64x4(double v) { return _mm256_set1_pd(v); }
inline F64x4 add_f64x4(F64x4 a, F64x4 b) { return _mm256_add_pd(a, b); }
inline F64x4 mul_f64x4(F64x4 a, F64x4 b) { return _mm256_mul_pd(a, b); }
inline F64x4 div_f64x4(F64x4 a, F64x4 b) { return _mm256_div_pd(a, b); }
/// Lane-wise madd(a, b, c) in double.
inline F64x4 madd_f64x4(F64x4 a, F64x4 b, F64x4 c) {
#if FALVOLT_FUSED_MADD
  return _mm256_fmadd_pd(a, b, c);
#else
  return _mm256_add_pd(_mm256_mul_pd(a, b), c);
#endif
}
/// Lanes 0-3 of v, widened to double.
inline F64x4 widen_lo_f32x8(F32x8 v) {
  return _mm256_cvtps_pd(_mm256_castps256_ps128(v));
}
/// Lanes 4-7 of v, widened to double.
inline F64x4 widen_hi_f32x8(F32x8 v) {
  return _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
}
/// (*p0, *p1, *p2, *p3) widened to double.
inline F64x4 gather_f64x4(const float* p0, const float* p1, const float* p2,
                          const float* p3) {
  return _mm256_cvtps_pd(_mm_setr_ps(*p0, *p1, *p2, *p3));
}
#else
struct F64x4 {
  double v[4];
};
inline void store_f64x4(double* p, F64x4 v) {
  for (int l = 0; l < 4; ++l) p[l] = v.v[l];
}
inline F64x4 splat_f64x4(double v) {
  F64x4 r{};
  for (int l = 0; l < 4; ++l) r.v[l] = v;
  return r;
}
inline F64x4 add_f64x4(F64x4 a, F64x4 b) {
  for (int l = 0; l < 4; ++l) a.v[l] += b.v[l];
  return a;
}
inline F64x4 mul_f64x4(F64x4 a, F64x4 b) {
  for (int l = 0; l < 4; ++l) a.v[l] *= b.v[l];
  return a;
}
inline F64x4 div_f64x4(F64x4 a, F64x4 b) {
  for (int l = 0; l < 4; ++l) a.v[l] /= b.v[l];
  return a;
}
inline F64x4 madd_f64x4(F64x4 a, F64x4 b, F64x4 c) {
  for (int l = 0; l < 4; ++l) c.v[l] = madd(a.v[l], b.v[l], c.v[l]);
  return c;
}
inline F64x4 widen_lo_f32x8(F32x8 v) {
  return F64x4{{v.v[0], v.v[1], v.v[2], v.v[3]}};
}
inline F64x4 widen_hi_f32x8(F32x8 v) {
  return F64x4{{v.v[4], v.v[5], v.v[6], v.v[7]}};
}
inline F64x4 gather_f64x4(const float* p0, const float* p1, const float* p2,
                          const float* p3) {
  return F64x4{{*p0, *p1, *p2, *p3}};
}
#endif

/// Column-group width of the integer fast path (one AVX2 register of
/// int32 lanes). The scalar fallback uses the same width so the two
/// builds partition columns identically.
inline constexpr int kI32Lanes = 8;

#if defined(__AVX2__)
/// Eight int32 lanes in one AVX register (AVX2 builds only: without it
/// the faulty-GEMM engine walks its groups in 64-bit scalar arithmetic).
/// Adds and multiplies wrap; callers keep them in range.
using I32x8 = __m256i;
inline I32x8 load_i32x8(const std::int32_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void store_i32x8(std::int32_t* p, I32x8 v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}
inline I32x8 splat_i32x8(std::int32_t v) { return _mm256_set1_epi32(v); }
inline I32x8 add_i32x8(I32x8 a, I32x8 b) { return _mm256_add_epi32(a, b); }
inline I32x8 mul_i32x8(I32x8 a, I32x8 b) { return _mm256_mullo_epi32(a, b); }
inline I32x8 min_i32x8(I32x8 a, I32x8 b) { return _mm256_min_epi32(a, b); }
inline I32x8 max_i32x8(I32x8 a, I32x8 b) { return _mm256_max_epi32(a, b); }
inline I32x8 and_i32x8(I32x8 a, I32x8 b) { return _mm256_and_si256(a, b); }
inline I32x8 or_i32x8(I32x8 a, I32x8 b) { return _mm256_or_si256(a, b); }
/// Lane-wise shift left by `s` in [0, 31].
inline I32x8 sll_i32x8(I32x8 a, int s) {
  return _mm256_sll_epi32(a, _mm_cvtsi32_si128(s));
}
/// Lane-wise arithmetic shift right by `s` in [0, 31].
inline I32x8 sra_i32x8(I32x8 a, int s) {
  return _mm256_sra_epi32(a, _mm_cvtsi32_si128(s));
}
#endif

/// out[l] = static_cast<float>(raw[l] * scale) for 8 lanes, in double.
/// With `scale` a power of two both the product and raw[l] / (1 / scale)
/// are exact, so this is a fixed-point dequantization rounded once.
inline void scale_i32x8_to_f32(const std::int32_t* raw, double scale,
                               float* out) {
#if defined(__AVX2__)
  const __m256d s = _mm256_set1_pd(scale);
  const __m256d lo = _mm256_mul_pd(
      _mm256_cvtepi32_pd(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(raw))),
      s);
  const __m256d hi = _mm256_mul_pd(
      _mm256_cvtepi32_pd(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(raw + 4))),
      s);
  _mm_storeu_ps(out, _mm256_cvtpd_ps(lo));
  _mm_storeu_ps(out + 4, _mm256_cvtpd_ps(hi));
#else
  for (int l = 0; l < kI32Lanes; ++l) {
    out[l] = static_cast<float>(static_cast<double>(raw[l]) * scale);
  }
#endif
}

/// Name of the compiled SIMD backend (perf-trajectory metadata).
inline const char* simd_backend() {
#if defined(__AVX2__)
  return "avx2";
#else
  return "scalar";
#endif
}

/// Writes the positions of row[0..k)'s nonzero entries (`!= 0.0f`: NaN
/// counts, -0.0f does not) to out[0..count), ascending, and returns
/// count; `out` needs room for k. `binary` tells whether every nonzero
/// entry is exactly 1.0f. Eight entries per compare with AVX2, so an
/// all-zero stretch costs one test per 8.
inline int nonzero_positions(const float* row, int k, int* out,
                             bool& binary) {
  int count = 0;
  int kk = 0;
  unsigned other = 0;  // nonzero entries that are not 1.0f
#if defined(__AVX2__)
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  for (; kk + 8 <= k; kk += 8) {
    const __m256 v = _mm256_loadu_ps(row + kk);
    const __m256 nonzero = _mm256_cmp_ps(v, zero, _CMP_NEQ_UQ);
    unsigned mask = static_cast<unsigned>(_mm256_movemask_ps(nonzero));
    if (mask == 0) continue;
    other |= static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_and_ps(nonzero, _mm256_cmp_ps(v, one, _CMP_NEQ_UQ))));
    do {
      out[count++] = kk + __builtin_ctz(mask);
      mask &= mask - 1;
    } while (mask != 0);
  }
#endif
  for (; kk < k; ++kk) {
    const float av = row[kk];
    out[count] = kk;
    count += av != 0.0f;
    other |= av != 0.0f && av != 1.0f;
  }
  binary = other == 0;
  return count;
}

/// out[0..7] = sum over t of base[idx[t] * stride + lane], with plain
/// (non-saturating) int32 adds in idx order. Callers must have proven the
/// sums cannot overflow (see SystolicGemmEngine's headroom proof).
inline void accumulate_rows_i32x8(const std::int32_t* base, int stride,
                                  const int* idx, int count,
                                  std::int32_t* out) {
#if defined(__AVX2__)
  __m256i acc = _mm256_setzero_si256();
  for (int t = 0; t < count; ++t) {
    const std::int32_t* row =
        base + static_cast<std::ptrdiff_t>(idx[t]) * stride;
    acc = _mm256_add_epi32(
        acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row)));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), acc);
#else
  std::int32_t acc[kI32Lanes] = {0};
  for (int t = 0; t < count; ++t) {
    const std::int32_t* row =
        base + static_cast<std::ptrdiff_t>(idx[t]) * stride;
    for (int lane = 0; lane < kI32Lanes; ++lane) acc[lane] += row[lane];
  }
  for (int lane = 0; lane < kI32Lanes; ++lane) out[lane] = acc[lane];
#endif
}

}  // namespace falvolt::compute
