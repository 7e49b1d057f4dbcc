// The systolic engine's implicit convolution (SystolicGemmEngine::conv,
// which reads each window from the sample's zero-bordered copy) against
// the lowering it replaces: im2col, SystolicGemmEngine::run on the
// [n * out_pixels x patch_size] matrix, then the NCHW repack plus the
// bias. Outputs must match byte for byte, with equal accumulate_steps()
// and equal kernel.faulty_gemm.* counter deltas, over seeded random
// formats (2-32 bits), fault maps (corrupt, bypass, none), shapes
// (strides 1 and 2 included), input kinds, thread counts and
// forced-scalar runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compute/thread_pool.h"
#include "fault/fault_map.h"
#include "obs/metrics.h"
#include "systolic/faulty_gemm.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"

namespace falvolt::systolic {
namespace {

struct Counts {
  std::uint64_t vector = 0, fallback = 0, zero = 0, reference = 0, steps = 0;

  static std::uint64_t read(const char* name) {
    return obs::counter(std::string("kernel.faulty_gemm.") + name).value();
  }
  static Counts now() {
    return {read("vector_cols"), read("fallback_cols"), read("zero_rows"),
            read("reference_rows"), read("steps")};
  }
  Counts since(const Counts& before) const {
    return {vector - before.vector, fallback - before.fallback,
            zero - before.zero, reference - before.reference,
            steps - before.steps};
  }
};

struct Result {
  std::vector<float> out;
  std::uint64_t engine_steps = 0;
  Counts counts;
};

struct Case {
  ArrayConfig cfg;
  const fault::FaultMap* map = nullptr;
  SystolicGemmEngine::FaultHandling handling =
      SystolicGemmEngine::FaultHandling::kCorrupt;
  tensor::ConvGeometry g;
  int n = 1;
  int cout = 1;
  std::vector<float> x;
  std::vector<float> w;     // [patch_size x cout]
  std::vector<float> bias;  // empty: no bias
  int threads = 1;
  bool force_scalar = false;
};

std::vector<float> output_buffer(const Case& cs) {
  return std::vector<float>(
      static_cast<std::size_t>(cs.n) * cs.cout * cs.g.out_pixels(),
      std::numeric_limits<float>::quiet_NaN());
}

// Runs `body(engine, out)` on a fresh engine and records the output, the
// engine's step delta and the process-wide counter deltas.
template <typename Body>
Result measure(const Case& cs, const Body& body) {
  SystolicGemmEngine engine(cs.cfg, cs.map, cs.handling);
  engine.set_threads(cs.threads);
  engine.set_force_scalar(cs.force_scalar);
  Result r;
  r.out = output_buffer(cs);
  const Counts before = Counts::now();
  body(engine, r.out.data());
  r.counts = Counts::now().since(before);
  r.engine_steps = engine.accumulate_steps();
  return r;
}

Result implicit_conv(const Case& cs) {
  return measure(cs, [&](SystolicGemmEngine& engine, float* out) {
    engine.conv(cs.x.data(), cs.n, cs.g, cs.w.data(), cs.cout,
                cs.bias.empty() ? nullptr : cs.bias.data(), out, "conv");
  });
}

Result lowered_conv(const Case& cs) {
  return measure(cs, [&](SystolicGemmEngine& engine, float* out) {
    const int p = cs.g.out_pixels();
    const int k = cs.g.patch_size();
    const int rows = cs.n * p;
    std::vector<float> cols(static_cast<std::size_t>(rows) * k);
    tensor::im2col(cs.x.data(), cs.n, cs.g, cols.data());
    std::vector<float> prod(static_cast<std::size_t>(rows) * cs.cout);
    engine.run(cols.data(), cs.w.data(), prod.data(), rows, k, cs.cout,
               "conv");
    for (int s = 0; s < cs.n; ++s) {
      for (int pix = 0; pix < p; ++pix) {
        for (int c = 0; c < cs.cout; ++c) {
          out[(static_cast<std::size_t>(s) * cs.cout + c) * p + pix] =
              prod[(static_cast<std::size_t>(s) * p + pix) * cs.cout + c] +
              (cs.bias.empty() ? 0.0f : cs.bias[static_cast<std::size_t>(c)]);
        }
      }
    }
  });
}

// Stuck bits on 1-3 random word bits, mostly inside the format's word.
fx::StuckBits random_stuck_bits(common::Rng& rng, int total_bits) {
  fx::StuckBits bits;
  const int count = static_cast<int>(rng.uniform_int(std::int64_t{1}, 3));
  for (int b = 0; b < count; ++b) {
    const int top = rng.bernoulli(0.85) ? total_bits - 1 : 31;
    const int bit = static_cast<int>(rng.uniform_int(std::int64_t{0}, top));
    if (bits.is_stuck(bit)) continue;
    bits.set(bit, rng.bernoulli(0.5) ? fx::StuckType::kStuckAt1
                                     : fx::StuckType::kStuckAt0);
  }
  return bits;
}

// One sample of a given kind: all zero, binary spikes at a random rate,
// or real values mixing exact 0 / 1 / -1 with in- and out-of-range
// magnitudes; any kind may carry NaN and -0.0f entries.
void fill_sample(float* v, std::size_t size, double range,
                 common::Rng& rng) {
  const double kind = rng.uniform();
  const double rate = rng.uniform(0.02, 0.6);
  const bool specials = rng.bernoulli(0.3);
  for (std::size_t i = 0; i < size; ++i) {
    float e = 0.0f;
    if (kind < 0.1) {
      e = 0.0f;
    } else if (kind < 0.6) {
      e = rng.bernoulli(rate) ? 1.0f : 0.0f;
    } else {
      const double pick = rng.uniform();
      if (pick < 0.35) {
        e = 0.0f;
      } else if (pick < 0.5) {
        e = 1.0f;
      } else if (pick < 0.55) {
        e = -1.0f;
      } else {
        e = static_cast<float>(rng.uniform(-2.0 * range, 2.0 * range));
      }
    }
    if (specials && rng.bernoulli(0.05)) {
      e = rng.bernoulli(0.5) ? -0.0f : std::numeric_limits<float>::quiet_NaN();
    }
    v[i] = e;
  }
}

Case random_case(common::Rng& rng, int threads) {
  Case cs;
  const int total = static_cast<int>(rng.uniform_int(std::int64_t{2}, 32));
  const int frac =
      static_cast<int>(rng.uniform_int(std::int64_t{0}, total - 1));
  cs.cfg.format = fx::FixedFormat(total, frac);
  const double array_pick = rng.uniform();
  if (array_pick < 0.25) {
    cs.cfg.rows = cs.cfg.cols = 16;
  } else if (array_pick < 0.4) {
    cs.cfg.rows = cs.cfg.cols = 64;
  } else {
    cs.cfg.rows = static_cast<int>(rng.uniform_int(std::int64_t{1}, 16));
    cs.cfg.cols = static_cast<int>(rng.uniform_int(std::int64_t{1}, 16));
  }
  cs.handling = rng.bernoulli(0.25)
                    ? SystolicGemmEngine::FaultHandling::kBypass
                    : SystolicGemmEngine::FaultHandling::kCorrupt;
  cs.threads = threads;
  cs.force_scalar = rng.bernoulli(0.15);

  const int cins[] = {1, 2, 8};
  const int couts[] = {5, 8, 16};
  cs.g.in_channels = cins[rng.uniform_int(std::uint64_t{3})];
  cs.cout = couts[rng.uniform_int(std::uint64_t{3})];
  const int kernel = rng.bernoulli(0.7) ? 3 : 1;
  cs.g.kernel_h = cs.g.kernel_w = kernel;
  cs.g.pad = static_cast<int>(rng.uniform_int(std::int64_t{0}, 2));
  cs.g.stride = rng.bernoulli(0.2) ? 2 : 1;
  const int min_side = std::max(1, kernel - 2 * cs.g.pad);
  cs.g.in_h = static_cast<int>(rng.uniform_int(std::int64_t{min_side}, 9));
  // Some planes are wider than 64 once padded.
  cs.g.in_w = rng.bernoulli(0.12)
                  ? static_cast<int>(rng.uniform_int(std::int64_t{60}, 70))
                  : static_cast<int>(rng.uniform_int(std::int64_t{min_side},
                                                     12));
  cs.n = static_cast<int>(rng.uniform_int(std::int64_t{1}, 3));

  const double range = cs.cfg.format.max_value();
  const double w_scale = range * rng.uniform(0.01, 1.5);
  cs.w.resize(static_cast<std::size_t>(cs.g.patch_size()) * cs.cout);
  for (auto& v : cs.w) v = static_cast<float>(rng.uniform(-w_scale, w_scale));
  if (rng.bernoulli(0.7)) {
    cs.bias.resize(static_cast<std::size_t>(cs.cout));
    for (auto& v : cs.bias) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  const std::size_t in_sample = static_cast<std::size_t>(cs.g.in_channels) *
                                cs.g.in_h * cs.g.in_w;
  cs.x.resize(in_sample * cs.n);
  for (int s = 0; s < cs.n; ++s) {
    fill_sample(cs.x.data() + s * in_sample, in_sample, range, rng);
  }
  return cs;
}

std::string describe(const Case& cs, int index) {
  std::ostringstream d;
  d << "case " << index << ": " << cs.cfg.format.to_string() << ", array "
    << cs.cfg.rows << "x" << cs.cfg.cols << ", "
    << (cs.map ? std::to_string(cs.map->num_faulty_pes()) + " faulty PEs"
               : std::string("no map"))
    << ", "
    << (cs.handling == SystolicGemmEngine::FaultHandling::kBypass
            ? "bypass"
            : "corrupt")
    << ", n=" << cs.n << " cin=" << cs.g.in_channels << " "
    << cs.g.in_h << "x" << cs.g.in_w << " k=" << cs.g.kernel_h
    << " pad=" << cs.g.pad << " stride=" << cs.g.stride
    << " cout=" << cs.cout
    << (cs.bias.empty() ? " no bias" : "") << ", " << cs.threads
    << " thread(s)" << (cs.force_scalar ? ", forced scalar" : "");
  return d.str();
}

void expect_identical(const Result& got, const Result& want) {
  ASSERT_EQ(got.out.size(), want.out.size());
  EXPECT_EQ(0, std::memcmp(got.out.data(), want.out.data(),
                           got.out.size() * sizeof(float)));
  EXPECT_EQ(got.engine_steps, want.engine_steps);
  EXPECT_EQ(got.counts.vector, want.counts.vector);
  EXPECT_EQ(got.counts.fallback, want.counts.fallback);
  EXPECT_EQ(got.counts.zero, want.counts.zero);
  EXPECT_EQ(got.counts.reference, want.counts.reference);
  EXPECT_EQ(got.counts.steps, want.counts.steps);
}

class SystolicConvDifferential : public ::testing::TestWithParam<int> {};

TEST_P(SystolicConvDifferential, MatchesIm2colRunRepack) {
  const int threads = GetParam();
  const int saved_threads = compute::global_threads();
  compute::set_global_threads(threads);
  constexpr int kCases = 1000;
  common::Rng rng(0xc0417 + static_cast<std::uint64_t>(threads));
  Counts reached;  // summed over the implicit runs
  for (int index = 0; index < kCases && !HasFailure(); ++index) {
    Case cs = random_case(rng, threads);
    fault::FaultMap map(cs.cfg.rows, cs.cfg.cols);
    if (rng.bernoulli(0.8)) {
      const int faulty = static_cast<int>(rng.uniform_int(
          std::int64_t{0}, std::max(1, cs.cfg.rows * cs.cfg.cols / 4)));
      for (int f = 0; f < faulty; ++f) {
        const int r = static_cast<int>(
            rng.uniform_int(static_cast<std::uint64_t>(cs.cfg.rows)));
        const int c = static_cast<int>(
            rng.uniform_int(static_cast<std::uint64_t>(cs.cfg.cols)));
        const fx::StuckBits bits =
            random_stuck_bits(rng, cs.cfg.format.total_bits());
        if (!bits.none() && !map.is_faulty(r, c)) map.add(r, c, bits);
      }
      cs.map = &map;
    }
    SCOPED_TRACE(describe(cs, index));
    const Result got = implicit_conv(cs);
    const Result want = lowered_conv(cs);
    expect_identical(got, want);
    reached.vector += got.counts.vector;
    reached.fallback += got.counts.fallback;
    reached.zero += got.counts.zero;
    reached.reference += got.counts.reference;
  }
  compute::set_global_threads(saved_threads);
  EXPECT_GT(reached.vector, 0u);
  EXPECT_GT(reached.fallback, 0u);
  EXPECT_GT(reached.zero, 0u);
  EXPECT_GT(reached.reference, 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, SystolicConvDifferential,
                         ::testing::Values(1, 4));

// The model zoo's shapes on a 64x64 array with 32 stuck-at-1 MSB PEs,
// the perfbench faulty-eval chip: a real-valued encoder layer and a
// spike layer, fast and forced scalar.
TEST(SystolicConv, ZooShapesOnAFaultyChip) {
  common::Rng rng(77);
  for (const bool encoder : {true, false}) {
    for (const bool scalar : {false, true}) {
      Case cs;
      cs.cfg.rows = cs.cfg.cols = 64;
      fault::FaultMap map(64, 64);
      for (int f = 0; f < 32; ++f) {
        const int r = static_cast<int>(rng.uniform_int(std::uint64_t{64}));
        const int c = static_cast<int>(rng.uniform_int(std::uint64_t{64}));
        fx::StuckBits bits;
        bits.set(cs.cfg.format.total_bits() - 1, fx::StuckType::kStuckAt1);
        if (!map.is_faulty(r, c)) map.add(r, c, bits);
      }
      cs.map = &map;
      cs.force_scalar = scalar;
      cs.n = 4;
      cs.cout = 8;
      cs.g.in_channels = encoder ? 1 : 8;
      cs.g.in_h = cs.g.in_w = 16;
      cs.g.kernel_h = cs.g.kernel_w = 3;
      cs.g.pad = 1;
      cs.w.resize(static_cast<std::size_t>(cs.g.patch_size()) * cs.cout);
      for (auto& v : cs.w) v = static_cast<float>(rng.uniform(-0.5, 0.5));
      cs.bias.assign(8, 0.125f);
      cs.x.resize(static_cast<std::size_t>(cs.n) * cs.g.in_channels * 256);
      for (auto& v : cs.x) {
        v = encoder ? (rng.bernoulli(0.4) ? static_cast<float>(rng.uniform())
                                          : 0.0f)
                    : (rng.bernoulli(0.15) ? 1.0f : 0.0f);
      }
      SCOPED_TRACE(describe(cs, 0));
      expect_identical(implicit_conv(cs), lowered_conv(cs));
    }
  }
}

}  // namespace
}  // namespace falvolt::systolic
