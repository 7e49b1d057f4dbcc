// Bit-identity of the fast paths (zero rows, plain-add groups, the exact
// 8-lane walk) against the forced-scalar reference (FALVOLT_FORCE_SCALAR
// / set_force_scalar): the same engine must produce byte-for-byte
// identical output tables and identical accumulate_steps telemetry on
// both paths, across fault handling modes, fixed-point formats that
// straddle the overflow headroom proof, folding/padding shapes, and
// activation kinds — in hand-picked cases and in a seeded random sweep.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "fault/fault_generator.h"
#include "obs/metrics.h"
#include "systolic/faulty_gemm.h"
#include "tensor/tensor.h"
#include "test_util.h"

namespace falvolt::systolic {
namespace {

using falvolt::testutil::random_tensor;

tensor::Tensor random_spikes(int m, int k, common::Rng& rng, double p = 0.4) {
  tensor::Tensor a({m, k});
  for (auto& v : a) v = rng.bernoulli(p) ? 1.0f : 0.0f;
  return a;
}

struct PathCase {
  ArrayConfig cfg;
  const fault::FaultMap* map = nullptr;
  SystolicGemmEngine::FaultHandling handling =
      SystolicGemmEngine::FaultHandling::kCorrupt;
  tensor::Tensor a;
  tensor::Tensor w;
};

std::uint64_t path_count(const char* path) {
  return obs::counter(std::string("kernel.faulty_gemm.") + path).value();
}

struct PathCounts {
  std::uint64_t vector = 0, fallback = 0, zero = 0, reference = 0;

  static PathCounts now() {
    return {path_count("vector_cols"), path_count("fallback_cols"),
            path_count("zero_rows"), path_count("reference_rows")};
  }
  PathCounts since(const PathCounts& before) const {
    return {vector - before.vector, fallback - before.fallback,
            zero - before.zero, reference - before.reference};
  }
  // Each output element is counted by exactly one path.
  std::uint64_t covered(int n) const {
    return vector + fallback + static_cast<std::uint64_t>(n) *
                                   (zero + reference);
  }
};

// Run the case on a fresh engine twice — fast paths on `threads` threads
// (0: the global pool's width), then forced-scalar on one — and require
// byte-identical tables, equal step telemetry, and path counters that
// cover every output element exactly once. Returns the fast run's path
// counts.
PathCounts expect_paths_identical(const PathCase& pc, int threads = 0) {
  const int m = pc.a.shape()[0], k = pc.a.shape()[1], n = pc.w.shape()[1];
  SystolicGemmEngine engine(pc.cfg, pc.map, pc.handling);
  tensor::Tensor c_vec({m, n});
  engine.set_threads(threads);
  engine.set_force_scalar(false);
  const PathCounts vec0 = PathCounts::now();
  const std::uint64_t s0 = engine.accumulate_steps();
  engine.run(pc.a.data(), pc.w.data(), c_vec.data(), m, k, n, "L");
  const std::uint64_t vec_steps = engine.accumulate_steps() - s0;
  const PathCounts vec = PathCounts::now().since(vec0);

  tensor::Tensor c_ref({m, n});
  engine.set_threads(1);
  engine.set_force_scalar(true);
  const PathCounts ref0 = PathCounts::now();
  const std::uint64_t s1 = engine.accumulate_steps();
  engine.run(pc.a.data(), pc.w.data(), c_ref.data(), m, k, n, "L");
  const std::uint64_t ref_steps = engine.accumulate_steps() - s1;
  const PathCounts ref = PathCounts::now().since(ref0);

  EXPECT_EQ(0, std::memcmp(c_vec.data(), c_ref.data(),
                           static_cast<std::size_t>(m) * n * sizeof(float)));
  EXPECT_EQ(vec_steps, ref_steps);
  const std::uint64_t elements = static_cast<std::uint64_t>(m) * n;
  EXPECT_EQ(vec.covered(n), elements);
  EXPECT_EQ(vec.reference, 0u);
  EXPECT_EQ(ref.covered(n), elements);
  EXPECT_EQ(ref.reference, static_cast<std::uint64_t>(m));
  return vec;
}

TEST(FaultyGemmPaths, CleanChipBinarySpikes) {
  common::Rng rng(11);
  PathCase pc;
  pc.cfg.rows = pc.cfg.cols = 8;
  pc.a = random_spikes(16, 24, rng);
  pc.w = random_tensor({24, 13}, rng, -0.5, 0.5);
  expect_paths_identical(pc);
}

TEST(FaultyGemmPaths, RandomFaultMapsCorruptAndBypass) {
  for (std::uint64_t seed = 20; seed < 26; ++seed) {
    common::Rng rng(seed);
    ArrayConfig cfg;
    cfg.rows = cfg.cols = 8;
    const fault::FaultMap map = fault::random_fault_map(
        8, 8, static_cast<int>(1 + seed % 10),
        fault::worst_case_spec(cfg.format.total_bits()), rng);
    for (const auto handling :
         {SystolicGemmEngine::FaultHandling::kCorrupt,
          SystolicGemmEngine::FaultHandling::kBypass}) {
      PathCase pc;
      pc.cfg = cfg;
      pc.map = &map;
      pc.handling = handling;
      pc.a = random_spikes(12, 40, rng);
      pc.w = random_tensor({40, 11}, rng, -0.5, 0.5);
      expect_paths_identical(pc);
    }
  }
}

TEST(FaultyGemmPaths, NarrowFormatStraddlesHeadroomProof) {
  // 10-bit format, max_raw = 511: at k=100 binary spikes the |qweight|
  // column sums routinely exceed the headroom bound, so some column
  // groups take the clamped 8-lane walk while others pass the proof —
  // the exact boundary the plain-add path must get right.
  common::Rng rng(31);
  PathCase pc;
  pc.cfg.rows = pc.cfg.cols = 16;
  pc.cfg.format = fx::FixedFormat(10, 4);
  pc.a = random_spikes(10, 100, rng, 0.6);
  pc.w = random_tensor({100, 12}, rng, -0.9, 0.9);
  expect_paths_identical(pc);
}

TEST(FaultyGemmPaths, DeliberatelySaturatingWeights) {
  // Every column saturates: the headroom proof must reject them all and
  // the result must still match the reference exactly.
  common::Rng rng(32);
  PathCase pc;
  pc.cfg.rows = pc.cfg.cols = 8;
  pc.cfg.format = fx::FixedFormat(10, 4);
  pc.a = tensor::Tensor({6, 64}, 1.0f);
  pc.w = tensor::Tensor({64, 9}, 1.9f);  // q = 30; 64 * 30 >> 511
  expect_paths_identical(pc);
}

TEST(FaultyGemmPaths, SaturatingWithFaultsCorrupt) {
  common::Rng rng(33);
  ArrayConfig cfg;
  cfg.rows = cfg.cols = 8;
  cfg.format = fx::FixedFormat(12, 5);
  const fault::FaultMap map = fault::random_fault_map(
      8, 8, 6, fault::worst_case_spec(cfg.format.total_bits()), rng);
  PathCase pc;
  pc.cfg = cfg;
  pc.map = &map;
  pc.a = random_spikes(8, 80, rng, 0.7);
  pc.w = random_tensor({80, 10}, rng, -1.5, 1.5);
  expect_paths_identical(pc);
}

TEST(FaultyGemmPaths, FoldingKLargerThanRows) {
  // k = 70 on a 16x16 array: the psum traverses the PE column 5 times
  // (padded_k = 80), so fault events repeat per fold.
  common::Rng rng(34);
  ArrayConfig cfg;
  cfg.rows = cfg.cols = 16;
  const fault::FaultMap map = fault::random_fault_map(
      16, 16, 12, fault::worst_case_spec(cfg.format.total_bits()), rng);
  PathCase pc;
  pc.cfg = cfg;
  pc.map = &map;
  pc.a = random_spikes(9, 70, rng);
  pc.w = random_tensor({70, 20}, rng, -0.5, 0.5);
  expect_paths_identical(pc);
}

TEST(FaultyGemmPaths, PaddingKSmallerThanRows) {
  // k = 3 on an 8x8 array: positions 3..7 are padding rows whose faults
  // still corrupt the passing psum.
  common::Rng rng(35);
  ArrayConfig cfg;
  cfg.rows = cfg.cols = 8;
  fault::FaultMap map(8, 8);
  fx::StuckBits bits;
  bits.set(15, fx::StuckType::kStuckAt1);
  map.add(6, 2, bits);  // padding row of PE column 2
  PathCase pc;
  pc.cfg = cfg;
  pc.map = &map;
  pc.a = random_spikes(5, 3, rng, 0.8);
  pc.w = random_tensor({3, 8}, rng, -0.5, 0.5);
  expect_paths_identical(pc);
}

TEST(FaultyGemmPaths, RealValuedActivationsMatchReference) {
  common::Rng rng(36);
  ArrayConfig cfg;
  cfg.rows = cfg.cols = 8;
  const fault::FaultMap map = fault::random_fault_map(
      8, 8, 4, fault::worst_case_spec(cfg.format.total_bits()), rng);
  PathCase pc;
  pc.cfg = cfg;
  pc.map = &map;
  pc.a = random_tensor({7, 30}, rng, 0.0, 1.0);  // encoder-style rates
  pc.w = random_tensor({30, 9}, rng, -0.5, 0.5);
  expect_paths_identical(pc);
}

TEST(FaultyGemmPaths, MixedBinaryAndRealRows) {
  common::Rng rng(37);
  PathCase pc;
  pc.cfg.rows = pc.cfg.cols = 8;
  pc.a = random_spikes(10, 25, rng);
  for (int kk = 0; kk < 25; ++kk) pc.a.at2(4, kk) = 0.37f;  // one real row
  pc.w = random_tensor({25, 10}, rng, -0.5, 0.5);
  expect_paths_identical(pc);
}

TEST(FaultyGemmPaths, WideNExercisesSimdGroupsAndPaddedGroup) {
  // n = 27: three full 8-column groups plus a zero-padded 3-column one,
  // with output columns folding onto 8 PE columns.
  common::Rng rng(38);
  ArrayConfig cfg;
  cfg.rows = cfg.cols = 8;
  const fault::FaultMap map = fault::random_fault_map(
      8, 8, 3, fault::worst_case_spec(cfg.format.total_bits()), rng);
  PathCase pc;
  pc.cfg = cfg;
  pc.map = &map;
  pc.a = random_spikes(14, 32, rng);
  pc.w = random_tensor({32, 27}, rng, -0.5, 0.5);
  expect_paths_identical(pc);
}

TEST(FaultyGemmPaths, ForceScalarEnvPickup) {
  ::setenv("FALVOLT_FORCE_SCALAR", "1", 1);
  {
    SystolicGemmEngine engine(ArrayConfig{}, nullptr);
    EXPECT_TRUE(engine.force_scalar());
  }
  ::setenv("FALVOLT_FORCE_SCALAR", "0", 1);
  {
    SystolicGemmEngine engine(ArrayConfig{}, nullptr);
    EXPECT_FALSE(engine.force_scalar());
  }
  ::unsetenv("FALVOLT_FORCE_SCALAR");
  {
    SystolicGemmEngine engine(ArrayConfig{}, nullptr);
    EXPECT_FALSE(engine.force_scalar());
  }
}

TEST(FaultyGemmPaths, ThreadedRunMatchesSerialOnBothPaths) {
  common::Rng rng(39);
  ArrayConfig cfg;
  cfg.rows = cfg.cols = 8;
  const fault::FaultMap map = fault::random_fault_map(
      8, 8, 5, fault::worst_case_spec(cfg.format.total_bits()), rng);
  const tensor::Tensor a = random_spikes(33, 40, rng);
  const tensor::Tensor w = random_tensor({40, 12}, rng, -0.5, 0.5);
  for (const bool scalar : {false, true}) {
    SystolicGemmEngine serial(cfg, &map);
    serial.set_threads(1);
    serial.set_force_scalar(scalar);
    tensor::Tensor c1({33, 12});
    serial.run(a.data(), w.data(), c1.data(), 33, 40, 12, "L");
    SystolicGemmEngine pooled(cfg, &map);
    pooled.set_threads(4);
    pooled.set_force_scalar(scalar);
    tensor::Tensor c2({33, 12});
    pooled.run(a.data(), w.data(), c2.data(), 33, 40, 12, "L");
    EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(),
                             33u * 12u * sizeof(float)));
  }
}

// --------------------------------------------------- randomized sweep

// Stuck bits on 1-4 random word bits, each stuck at a random level;
// mostly inside the format's word, sometimes above it (ignored there).
fx::StuckBits random_stuck_bits(common::Rng& rng, int total_bits) {
  fx::StuckBits bits;
  const int count = static_cast<int>(rng.uniform_int(std::int64_t{1}, 4));
  for (int b = 0; b < count; ++b) {
    const int top = rng.bernoulli(0.8) ? total_bits - 1 : 31;
    const int bit = static_cast<int>(rng.uniform_int(std::int64_t{0}, top));
    if (bits.is_stuck(bit)) continue;
    bits.set(bit, rng.bernoulli(0.5) ? fx::StuckType::kStuckAt1
                                     : fx::StuckType::kStuckAt0);
  }
  return bits;
}

// One input row of a given kind: all zero, binary spikes, or real values
// that mix exact 0.0 / 1.0 / -1.0 entries with in-range and out-of-range
// magnitudes of either sign.
void fill_random_row(float* row, int k, common::Rng& rng, double range) {
  const double kind = rng.uniform();
  for (int kk = 0; kk < k; ++kk) {
    float v = 0.0f;
    if (kind < 0.15) {
      v = 0.0f;
    } else if (kind < 0.55) {
      v = rng.bernoulli(0.4) ? 1.0f : 0.0f;
    } else {
      const double pick = rng.uniform();
      if (pick < 0.3) {
        v = 0.0f;
      } else if (pick < 0.45) {
        v = 1.0f;
      } else if (pick < 0.5) {
        v = -1.0f;
      } else {
        v = static_cast<float>(rng.uniform(-3.0 * range, 3.0 * range));
      }
    }
    row[kk] = v;
  }
}

TEST(FaultyGemmPaths, RandomizedDifferentialAgainstForcedScalar) {
  constexpr int kCases = 2000;
  common::Rng rng(0xfa17ed);
  PathCounts reached;  // summed over the sweep's fast runs
  for (int cs = 0; cs < kCases && !::testing::Test::HasFailure(); ++cs) {
    const int total = static_cast<int>(rng.uniform_int(std::int64_t{2}, 32));
    const int frac =
        static_cast<int>(rng.uniform_int(std::int64_t{0}, total - 1));
    ArrayConfig cfg;
    cfg.format = fx::FixedFormat(total, frac);
    cfg.rows = static_cast<int>(rng.uniform_int(std::int64_t{1}, 16));
    cfg.cols = static_cast<int>(rng.uniform_int(std::int64_t{1}, 16));
    const int m = static_cast<int>(rng.uniform_int(std::int64_t{1}, 12));
    const int k = static_cast<int>(rng.uniform_int(std::int64_t{1}, 40));
    const int n = static_cast<int>(rng.uniform_int(std::int64_t{1}, 30));

    const bool with_map = rng.bernoulli(0.8);
    fault::FaultMap map(cfg.rows, cfg.cols);
    const int faulty = static_cast<int>(
        rng.uniform_int(std::int64_t{0}, cfg.rows * cfg.cols / 2));
    for (int f = 0; f < faulty; ++f) {
      const int r = static_cast<int>(rng.uniform_int(
          static_cast<std::uint64_t>(cfg.rows)));
      const int c = static_cast<int>(rng.uniform_int(
          static_cast<std::uint64_t>(cfg.cols)));
      const fx::StuckBits bits = random_stuck_bits(rng, total);
      if (!bits.none() && !map.is_faulty(r, c)) map.add(r, c, bits);
    }
    PathCase pc;
    pc.cfg = cfg;
    pc.map = with_map ? &map : nullptr;
    pc.handling = rng.bernoulli(0.25)
                      ? SystolicGemmEngine::FaultHandling::kBypass
                      : SystolicGemmEngine::FaultHandling::kCorrupt;
    const int threads = rng.bernoulli(0.5) ? 4 : 1;

    // Weights from well inside the range (plain-add groups) to past it
    // (saturating quantization and partial sums).
    const double range = cfg.format.max_value();
    const double w_scale = range * rng.uniform(0.01, 1.5);
    pc.w = random_tensor({k, n}, rng, -w_scale, w_scale);
    pc.a = tensor::Tensor({m, k});
    for (int i = 0; i < m; ++i) {
      fill_random_row(pc.a.data() + static_cast<std::size_t>(i) * k, k, rng,
                      range);
    }

    std::ostringstream desc;
    desc << "case " << cs << ": " << cfg.format.to_string() << ", array "
         << cfg.rows << "x" << cfg.cols << ", m=" << m << " k=" << k
         << " n=" << n << ", " << (with_map ? map.num_faulty_pes() : -1)
         << " faulty PEs, "
         << (pc.handling == SystolicGemmEngine::FaultHandling::kBypass
                 ? "bypass"
                 : "corrupt")
         << ", " << threads << " thread(s)";
    SCOPED_TRACE(desc.str());

    const PathCounts fast = expect_paths_identical(pc, threads);
    reached.vector += fast.vector;
    reached.fallback += fast.fallback;
    reached.zero += fast.zero;
  }
  EXPECT_GT(reached.vector, 0u);
  EXPECT_GT(reached.fallback, 0u);
  EXPECT_GT(reached.zero, 0u);
}

}  // namespace
}  // namespace falvolt::systolic
