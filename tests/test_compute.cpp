// Tests for the unified compute backend: thread pool semantics, blocked
// kernel correctness against the naive reference, and the determinism
// regression (parallel output bit-identical to single-thread output for
// every kernel and for the faulty systolic engine).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compute/gemm_kernels.h"
#include "compute/thread_pool.h"
#include "fault/fault_generator.h"
#include "systolic/faulty_gemm.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace falvolt::compute {
namespace {

using falvolt::testutil::random_tensor;

tensor::Tensor random_spikes(int m, int k, common::Rng& rng, double p = 0.4) {
  tensor::Tensor a({m, k});
  for (auto& v : a) v = rng.bernoulli(p) ? 1.0f : 0.0f;
  return a;
}

void expect_bit_identical(const tensor::Tensor& a, const tensor::Tensor& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "element " << i;
  }
}

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(0, 257, 1, [&](int lo, int hi) {
    for (int i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SizeOneRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  int calls = 0;
  pool.parallel_for(0, 100, 1, [&](int lo, int hi) {
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 100);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(5, 5, 1, [&](int, int) { FAIL(); });
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(0, 8, 1, [&](int lo, int hi) {
    pool.parallel_for(lo, hi, 1,
                      [&](int l, int h) { total += h - l; });
  });
  EXPECT_EQ(total.load(), 8);
}

TEST(ThreadPool, ReusableAcrossManyGenerations) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> total{0};
    pool.parallel_for(0, 64, 1, [&](int lo, int hi) { total += hi - lo; });
    ASSERT_EQ(total.load(), 64);
  }
}

TEST(ThreadPool, GlobalPoolResize) {
  const int before = global_threads();
  set_global_threads(2);
  EXPECT_EQ(global_threads(), 2);
  set_global_threads(0);  // restore the default sizing
  EXPECT_EQ(global_threads(), default_threads());
  set_global_threads(before);
}

// --------------------------------------------------- kernel correctness

// Double-accumulated reference.
void ref_gemm(const float* a, const float* b, float* c, int m, int k, int n) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a[i * k + kk]) * b[kk * n + j];
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

class BlockedShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BlockedShapes, BlockedMatchesReference) {
  const auto [m, k, n] = GetParam();
  common::Rng rng(static_cast<std::uint64_t>(m * 1000 + k * 10 + n));
  tensor::Tensor a = random_tensor({m, k}, rng);
  tensor::Tensor b = random_tensor({k, n}, rng);
  tensor::Tensor c({m, n});
  tensor::Tensor ref({m, n});
  gemm_blocked(a.data(), b.data(), c.data(), m, k, n);
  ref_gemm(a.data(), b.data(), ref.data(), m, k, n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], ref[i], 2e-3f) << "element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockedShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{7, 5, 3},
                      std::tuple{8, 8, 8}, std::tuple{9, 17, 9},
                      std::tuple{33, 70, 23}, std::tuple{64, 300, 40},
                      std::tuple{100, 64, 100}));

TEST(BlockedGemm, AccumulateAddsIntoC) {
  common::Rng rng(11);
  const int m = 12, k = 20, n = 12;
  tensor::Tensor a = random_tensor({m, k}, rng);
  tensor::Tensor b = random_tensor({k, n}, rng);
  tensor::Tensor c({m, n}, 1.0f);
  tensor::Tensor once({m, n});
  gemm_blocked(a.data(), b.data(), once.data(), m, k, n);
  gemm_blocked(a.data(), b.data(), c.data(), m, k, n, /*accumulate=*/true);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], once[i] + 1.0f, 1e-5f);
  }
}

TEST(BlockedGemm, AtBMatchesNaive) {
  common::Rng rng(12);
  const int k = 37, m = 21, n = 18;
  tensor::Tensor a = random_tensor({k, m}, rng);
  tensor::Tensor b = random_tensor({k, n}, rng);
  tensor::Tensor c({m, n});
  tensor::Tensor ref({m, n});
  gemm_at_b_blocked(a.data(), b.data(), c.data(), k, m, n);
  gemm_at_b_naive(a.data(), b.data(), ref.data(), k, m, n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], ref[i], 1e-4f);
  }
}

TEST(BlockedGemm, ABtMatchesNaive) {
  common::Rng rng(13);
  const int m = 19, k = 41, n = 17;
  tensor::Tensor a = random_tensor({m, k}, rng);
  tensor::Tensor b = random_tensor({n, k}, rng);
  tensor::Tensor c({m, n});
  tensor::Tensor ref({m, n});
  gemm_a_bt_blocked(a.data(), b.data(), c.data(), m, k, n);
  gemm_a_bt_naive(a.data(), b.data(), ref.data(), m, k, n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], ref[i], 1e-4f);
  }
}

class ThreadScope {
 public:
  explicit ThreadScope(int threads) : saved_(global_threads()) {
    set_global_threads(threads);
  }
  ~ThreadScope() { set_global_threads(saved_); }

 private:
  int saved_;
};

// ------------------------------------------------- cross-tier identity
//
// gemm_auto sends every K <= kKc problem to the blocked tier and
// gemm_at_b_auto runs spike inputs on the tiled kernel, both on the
// promise that they reproduce the naive tier's bits. memcmp, not a
// tolerance: a one-ulp shift must fail.

// Matrix with the given share of nonzeros: ones (spikes) or analog values.
tensor::Tensor sparse_matrix(int rows, int cols, double density, bool binary,
                             common::Rng& rng) {
  tensor::Tensor a({rows, cols});
  for (auto& v : a) {
    if (!rng.bernoulli(density)) continue;
    v = binary ? 1.0f : static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return a;
}

void expect_same_bits(const tensor::Tensor& got, const tensor::Tensor& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), sizeof(float) * got.size()),
            0)
      << "max |diff| " << tensor::max_abs_diff(got, want);
}

TEST(CrossTier, BlockedEqualsNaiveUpToOneKPanel) {
  common::Rng rng(31);
  for (const int m : {1, 7, 37}) {
    for (const int n : {8, 9, 10, 17, 32}) {
      for (const int k : {8, 9, 72, 128, kKc}) {
        for (const bool binary : {true, false}) {
          SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
                       " k=" + std::to_string(k) +
                       (binary ? " binary" : " analog"));
          const tensor::Tensor a = sparse_matrix(m, k, 0.2, binary, rng);
          const tensor::Tensor b = random_tensor({k, n}, rng);
          tensor::Tensor naive({m, n});
          tensor::Tensor blocked({m, n});
          gemm_naive(a.data(), b.data(), naive.data(), m, k, n);
          gemm_blocked(a.data(), b.data(), blocked.data(), m, k, n);
          expect_same_bits(blocked, naive);
          tensor::Tensor dispatched({m, n});
          gemm_auto(a.data(), b.data(), dispatched.data(), m, k, n);
          expect_same_bits(dispatched, naive);
        }
      }
    }
  }
}

TEST(CrossTier, TiledAtBEqualsNaive) {
  // (k, m, n): full 8x8 tiles, ragged m and/or n edges, one-element
  // problems, and k longer than one kKc row slab.
  const int shapes[][3] = {{1, 1, 1},    {5, 3, 2},    {37, 21, 18},
                           {64, 8, 8},   {300, 72, 8}, {600, 9, 3},
                           {129, 17, 33}, {520, 40, 16}};
  common::Rng rng(32);
  for (const auto& shape : shapes) {
    const int k = shape[0], m = shape[1], n = shape[2];
    for (const bool binary : {true, false}) {
      for (const bool accumulate : {false, true}) {
        for (const int threads : {1, 4}) {
          SCOPED_TRACE("k=" + std::to_string(k) + " m=" + std::to_string(m) +
                       " n=" + std::to_string(n) +
                       (binary ? " binary" : " analog") +
                       (accumulate ? " accumulate" : "") +
                       " threads=" + std::to_string(threads));
          const tensor::Tensor a = sparse_matrix(k, m, 0.2, binary, rng);
          const tensor::Tensor b = random_tensor({k, n}, rng);
          const tensor::Tensor c0 = random_tensor({m, n}, rng);
          tensor::Tensor naive = c0;
          tensor::Tensor tiled = c0;
          gemm_at_b_naive(a.data(), b.data(), naive.data(), k, m, n,
                          accumulate);
          {
            ThreadScope scope(threads);
            gemm_at_b_tiled(a.data(), b.data(), tiled.data(), k, m, n,
                            accumulate, threads);
          }
          expect_same_bits(tiled, naive);
        }
      }
    }
  }
}

// ------------------------------------------------ determinism regression
//
// The library's core reproducibility guarantee: for a fixed seed, the
// parallel kernels and engines produce output BIT-IDENTICAL to their
// single-thread runs, so experiment results never depend on --threads.

TEST(Determinism, BlockedGemmParallelBitIdentical) {
  ThreadScope scope(4);
  common::Rng rng(21);
  const int m = 83, k = 150, n = 37;
  tensor::Tensor a = random_tensor({m, k}, rng);
  tensor::Tensor b = random_tensor({k, n}, rng);
  tensor::Tensor serial({m, n});
  tensor::Tensor parallel({m, n});
  gemm_blocked(a.data(), b.data(), serial.data(), m, k, n, false, 1);
  gemm_blocked(a.data(), b.data(), parallel.data(), m, k, n, false, 4);
  expect_bit_identical(serial, parallel);
}

TEST(Determinism, NaiveGemmParallelBitIdentical) {
  // The auto dispatcher sends this sparse spike input (K <= kKc) to the
  // row-partitioned blocked tier, which must match the serial zero-skip
  // kernel bit for bit.
  ThreadScope scope(4);
  common::Rng rng(22);
  const int m = 140, k = 90, n = 30;
  tensor::Tensor a = random_spikes(m, k, rng, 0.1);
  tensor::Tensor b = random_tensor({k, n}, rng);
  tensor::Tensor serial({m, n});
  gemm_naive(a.data(), b.data(), serial.data(), m, k, n);
  tensor::Tensor parallel({m, n});
  gemm_auto(a.data(), b.data(), parallel.data(), m, k, n);
  expect_bit_identical(serial, parallel);
}

TEST(Determinism, AtBParallelBitIdentical) {
  ThreadScope scope(4);
  common::Rng rng(23);
  const int k = 120, m = 64, n = 33;
  tensor::Tensor a = random_tensor({k, m}, rng);
  tensor::Tensor b = random_tensor({k, n}, rng);
  tensor::Tensor serial({m, n});
  tensor::Tensor parallel({m, n});
  gemm_at_b_blocked(a.data(), b.data(), serial.data(), k, m, n, false, 1);
  gemm_at_b_blocked(a.data(), b.data(), parallel.data(), k, m, n, false, 4);
  expect_bit_identical(serial, parallel);
}

TEST(Determinism, ABtParallelBitIdentical) {
  ThreadScope scope(4);
  common::Rng rng(24);
  const int m = 90, k = 75, n = 41;
  tensor::Tensor a = random_tensor({m, k}, rng);
  tensor::Tensor b = random_tensor({n, k}, rng);
  tensor::Tensor serial({m, n});
  tensor::Tensor parallel({m, n});
  gemm_a_bt_blocked(a.data(), b.data(), serial.data(), m, k, n, false, 1);
  gemm_a_bt_blocked(a.data(), b.data(), parallel.data(), m, k, n, false, 4);
  expect_bit_identical(serial, parallel);
}

TEST(Determinism, TensorWrappersBitIdenticalAcrossThreadCounts) {
  // The public tensor:: entry points, evaluated under different global
  // pool sizes, must agree bit-for-bit.
  common::Rng rng(25);
  const int m = 96, k = 110, n = 48;
  tensor::Tensor a = random_tensor({m, k}, rng);
  tensor::Tensor b = random_tensor({k, n}, rng);
  tensor::Tensor c1({m, n});
  tensor::Tensor c4({m, n});
  {
    ThreadScope scope(1);
    tensor::gemm(a.data(), b.data(), c1.data(), m, k, n);
  }
  {
    ThreadScope scope(4);
    tensor::gemm(a.data(), b.data(), c4.data(), m, k, n);
  }
  expect_bit_identical(c1, c4);
}

class EngineDeterminism
    : public ::testing::TestWithParam<
          systolic::SystolicGemmEngine::FaultHandling> {};

TEST_P(EngineDeterminism, SystolicEngineParallelBitIdentical) {
  const auto handling = GetParam();
  common::Rng rng(26);
  systolic::ArrayConfig cfg;
  cfg.rows = cfg.cols = 8;
  const fault::FaultMap map = fault::random_fault_map(
      8, 8, 12, fault::worst_case_spec(cfg.format.total_bits()), rng);
  const int m = 64, k = 20, n = 13;
  tensor::Tensor a = random_spikes(m, k, rng);
  tensor::Tensor w = random_tensor({k, n}, rng, -0.5, 0.5);

  systolic::SystolicGemmEngine serial(cfg, &map, handling);
  serial.set_threads(1);
  tensor::Tensor c_serial({m, n});
  serial.run(a.data(), w.data(), c_serial.data(), m, k, n, "L");

  ThreadScope scope(4);
  systolic::SystolicGemmEngine parallel(cfg, &map, handling);
  tensor::Tensor c_parallel({m, n});
  parallel.run(a.data(), w.data(), c_parallel.data(), m, k, n, "L");

  expect_bit_identical(c_serial, c_parallel);
  // Telemetry is scheduling-independent too: both runs execute the same
  // accumulate steps.
  EXPECT_EQ(serial.accumulate_steps(), parallel.accumulate_steps());
}

INSTANTIATE_TEST_SUITE_P(
    Handling, EngineDeterminism,
    ::testing::Values(
        systolic::SystolicGemmEngine::FaultHandling::kCorrupt,
        systolic::SystolicGemmEngine::FaultHandling::kBypass));

}  // namespace
}  // namespace falvolt::compute
