// Perf-trajectory sweeps of the library's hot kernels, written as one
// machine-readable summary: the float GEMM tiers (naive vs blocked vs
// pool-parallel, 64^3..512^3), the fixed-point faulty-GEMM engine
// (clean / corrupt / bypass, vectorized vs forced-scalar, with its
// path-taken counts) and the register-level cycle simulator.
//
// Usage:
//   micro_kernels [--out_dir=DIR] [--json=NAME] [--threads=N]
//
// The summary goes to --json (default micro_kernels.json, 'none'
// disables). --out_dir places a relative --json under DIR, created with
// parents (default bench_out/; pass --out_dir= to write it as-is). An
// unknown flag or a malformed value exits 2 before any sweep runs.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/timer.h"
#include "common/version.h"
#include "compute/gemm_kernels.h"
#include "compute/simd.h"
#include "compute/thread_pool.h"
#include "fault/fault_generator.h"
#include "obs/metrics.h"
#include "systolic/cycle_sim.h"
#include "systolic/faulty_gemm.h"
#include "tensor/tensor.h"

namespace {

using namespace falvolt;

tensor::Tensor random_spikes(int m, int k, std::uint64_t seed) {
  common::Rng rng(seed);
  tensor::Tensor a({m, k});
  for (auto& v : a) v = rng.bernoulli(0.3) ? 1.0f : 0.0f;
  return a;
}

tensor::Tensor random_weights(int k, int n, std::uint64_t seed) {
  common::Rng rng(seed);
  tensor::Tensor w({k, n});
  for (auto& v : w) v = static_cast<float>(rng.uniform(-0.5, 0.5));
  return w;
}

// Median-of-reps wall time for one kernel invocation.
double time_kernel_ms(const std::function<void()>& fn) {
  // Warm up once, then repeat until ~0.2 s of samples (>= 3 reps).
  fn();
  std::vector<double> samples;
  double total = 0.0;
  while (static_cast<int>(samples.size()) < 3 || total < 0.2) {
    common::Timer t;
    fn();
    const double s = t.seconds();
    samples.push_back(s);
    total += s;
    if (samples.size() >= 64) break;
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2] * 1e3;
}

// naive / blocked / parallel square-GEMM sweep; returns the JSON array
// body (the "gemm_tiers" entries).
std::string run_gemm_sweep(const std::vector<int>& sizes) {
  const int threads = compute::global_threads();
  std::string json;
  for (std::size_t idx = 0; idx < sizes.size(); ++idx) {
    const int s = sizes[idx];
    const tensor::Tensor a = random_weights(s, s, 51);
    const tensor::Tensor b = random_weights(s, s, 52);
    tensor::Tensor c({s, s});
    const double naive_ms = time_kernel_ms([&] {
      compute::gemm_naive(a.data(), b.data(), c.data(), s, s, s);
    });
    const double blocked_ms = time_kernel_ms([&] {
      compute::gemm_blocked(a.data(), b.data(), c.data(), s, s, s);
    });
    const double parallel_ms = time_kernel_ms([&] {
      compute::gemm_blocked(a.data(), b.data(), c.data(), s, s, s,
                            /*accumulate=*/false, threads);
    });
    const double flops = 2.0 * s * s * static_cast<double>(s);
    char row[512];
    std::snprintf(
        row, sizeof(row),
        "    {\"size\": %d, \"naive_ms\": %.3f, \"blocked_ms\": %.3f, "
        "\"parallel_ms\": %.3f, \"blocked_speedup\": %.2f, "
        "\"parallel_speedup\": %.2f, \"parallel_gflops\": %.2f}%s\n",
        s, naive_ms, blocked_ms, parallel_ms, naive_ms / blocked_ms,
        naive_ms / parallel_ms, flops / (parallel_ms * 1e6),
        idx + 1 == sizes.size() ? "" : ",");
    json += row;
    std::printf(
        "[gemm %3d^3] naive %8.2f ms | blocked %8.2f ms (%.2fx) | "
        "parallel(%d) %8.2f ms (%.2fx)\n",
        s, naive_ms, blocked_ms, naive_ms / blocked_ms, threads,
        parallel_ms, naive_ms / parallel_ms);
  }
  return json;
}

// Faulty-GEMM engine sweep over the actual eval hot path: per (mode,
// array size), the vectorized engine vs the FALVOLT_FORCE_SCALAR
// reference on the same operands, so the JSON carries the measured
// fast-path speedup. Returns the "faulty_gemm" JSON array body.
std::string run_faulty_gemm_sweep() {
  struct Case {
    const char* mode;
    int array;
    int faults;
    systolic::SystolicGemmEngine::FaultHandling handling;
  };
  const std::vector<Case> cases = {
      {"clean", 64, 0, systolic::SystolicGemmEngine::FaultHandling::kCorrupt},
      {"clean", 256, 0,
       systolic::SystolicGemmEngine::FaultHandling::kCorrupt},
      {"corrupt", 64, 16,
       systolic::SystolicGemmEngine::FaultHandling::kCorrupt},
      {"corrupt", 256, 64,
       systolic::SystolicGemmEngine::FaultHandling::kCorrupt},
      {"bypass", 64, 16,
       systolic::SystolicGemmEngine::FaultHandling::kBypass},
      {"bypass", 256, 64,
       systolic::SystolicGemmEngine::FaultHandling::kBypass},
  };
  const int m = 256, k = 72, n = 64;
  const tensor::Tensor a = random_spikes(m, k, 61);
  const tensor::Tensor w = random_weights(k, n, 62);
  std::string json;
  for (std::size_t idx = 0; idx < cases.size(); ++idx) {
    const Case& cs = cases[idx];
    systolic::ArrayConfig cfg;
    cfg.rows = cfg.cols = cs.array;
    common::Rng rng(63 + static_cast<std::uint64_t>(idx));
    fault::FaultMap map(cs.array, cs.array);
    if (cs.faults > 0) {
      map = fault::random_fault_map(
          cs.array, cs.array, cs.faults,
          fault::worst_case_spec(cfg.format.total_bits()), rng);
    }
    systolic::SystolicGemmEngine engine(
        cfg, cs.faults > 0 ? &map : nullptr, cs.handling);
    tensor::Tensor c({m, n});
    engine.set_force_scalar(false);
    const double vector_ms = time_kernel_ms([&] {
      engine.run(a.data(), w.data(), c.data(), m, k, n, "L");
    });
    engine.set_force_scalar(true);
    const double scalar_ms = time_kernel_ms([&] {
      engine.run(a.data(), w.data(), c.data(), m, k, n, "L");
    });
    // Path-taken counts for ONE vectorized invocation: delta the
    // process-wide kernel.faulty_gemm.* counters around a single untimed
    // run (this engine is the only one running), so the JSON carries
    // deterministic per-run() numbers (the timed loops above run an
    // unknown number of iterations).
    engine.set_force_scalar(false);
    const auto path_count = [](const char* path) -> unsigned long long {
      return obs::counter(std::string("kernel.faulty_gemm.") + path).value();
    };
    const unsigned long long vector0 = path_count("vector_cols");
    const unsigned long long fallback0 = path_count("fallback_cols");
    const unsigned long long zero0 = path_count("zero_rows");
    const unsigned long long reference0 = path_count("reference_rows");
    const std::uint64_t steps_before = engine.accumulate_steps();
    engine.run(a.data(), w.data(), c.data(), m, k, n, "L");
    const unsigned long long vector_cols = path_count("vector_cols") - vector0;
    const unsigned long long fallback_cols =
        path_count("fallback_cols") - fallback0;
    const unsigned long long zero_rows = path_count("zero_rows") - zero0;
    const unsigned long long reference_rows =
        path_count("reference_rows") - reference0;
    const unsigned long long steps = engine.accumulate_steps() - steps_before;
    // Every output element is counted by exactly one path.
    const unsigned long long covered =
        vector_cols + fallback_cols +
        static_cast<unsigned long long>(n) * (zero_rows + reference_rows);
    if (covered != static_cast<unsigned long long>(m) * n) {
      throw std::runtime_error(
          "faulty_gemm path counters cover " + std::to_string(covered) +
          " of " + std::to_string(static_cast<long long>(m) * n) +
          " output elements");
    }
    const double items = static_cast<double>(m) * k * n;
    char row[768];
    std::snprintf(
        row, sizeof(row),
        "    {\"mode\": \"%s\", \"array\": %d, \"faults\": %d, "
        "\"m\": %d, \"k\": %d, \"n\": %d, \"scalar_ms\": %.4f, "
        "\"vector_ms\": %.4f, \"speedup\": %.2f, "
        "\"vector_mitems_per_s\": %.1f, \"vector_cols\": %llu, "
        "\"fallback_cols\": %llu, \"zero_rows\": %llu, "
        "\"reference_rows\": %llu, \"accumulate_steps\": %llu}%s\n",
        cs.mode, cs.array, cs.faults, m, k, n, scalar_ms, vector_ms,
        scalar_ms / vector_ms, items / (vector_ms * 1e3), vector_cols,
        fallback_cols, zero_rows, reference_rows, steps,
        idx + 1 == cases.size() ? "" : ",");
    json += row;
    std::printf(
        "[faulty_gemm %-7s N=%-3d] scalar %8.3f ms | vector %8.3f ms "
        "(%.2fx)\n",
        cs.mode, cs.array, scalar_ms, vector_ms, scalar_ms / vector_ms);
  }
  return json;
}

// Register-level cycle-simulator sweep (the bit-accuracy oracle — slow
// by construction, tracked so an accidental slowdown is still caught).
// Returns the "cycle_sim" JSON array body.
std::string run_cycle_sim_sweep() {
  const std::vector<int> sizes = {8, 16, 32};
  std::string json;
  for (std::size_t idx = 0; idx < sizes.size(); ++idx) {
    const int n_pe = sizes[idx];
    systolic::ArrayConfig cfg;
    cfg.rows = cfg.cols = n_pe;
    systolic::SystolicArraySim sim(cfg, nullptr);
    const tensor::Tensor a = random_spikes(16, 2 * n_pe, 71);
    const tensor::Tensor w = random_weights(2 * n_pe, n_pe, 72);
    const double ms = time_kernel_ms([&] {
      systolic::CycleStats stats;
      const tensor::Tensor c = sim.matmul(a, w, &stats);
      // A compiler barrier on the product: the timed call stays live.
      asm volatile("" : : "r"(c.data()) : "memory");
    });
    char row[256];
    std::snprintf(row, sizeof(row),
                  "    {\"array\": %d, \"ms\": %.4f}%s\n", n_pe, ms,
                  idx + 1 == sizes.size() ? "" : ",");
    json += row;
    std::printf("[cycle_sim N=%-3d] %8.3f ms\n", n_pe, ms);
  }
  return json;
}

// Resolve a possibly relative output path under --out_dir, creating the
// directory (with parents) on demand.
std::string resolve_out_path(const std::string& out_dir,
                             const std::string& name) {
  const std::filesystem::path p(name);
  if (out_dir.empty() || p.is_absolute()) return name;
  std::filesystem::create_directories(out_dir);
  return (std::filesystem::path(out_dir) / p).string();
}

}  // namespace

int main(int argc, char** argv) try {
  common::CliFlags cli("micro_kernels");
  cli.add_string("out_dir", "bench_out",
                 "directory for a relative --json, created with parents "
                 "('' = the working directory)");
  cli.add_string("json", "micro_kernels.json",
                 "summary JSON file ('none' or '' = no summary)");
  cli.add_int("threads", 0,
              "compute worker threads (0 = $FALVOLT_THREADS, else the "
              "hardware concurrency)");
  if (!cli.parse_or_exit(argc, argv)) return 0;
  if (cli.get_int("threads") < 0) {
    throw bench::UsageError("--threads must be >= 0");
  }
  compute::set_global_threads(static_cast<int>(cli.get_int("threads")));
  const std::string& json_name = cli.get_string("json");
  const bool write_json = !json_name.empty() && json_name != "none";
  // Resolved before the sweeps, so a bad --out_dir fails at once.
  const std::string json_path =
      write_json ? resolve_out_path(cli.get_string("out_dir"), json_name)
                 : "";

  const std::string gemm_rows = run_gemm_sweep({64, 128, 256, 512});
  const std::string faulty_rows = run_faulty_gemm_sweep();
  const std::string cycle_rows = run_cycle_sim_sweep();
  if (!write_json) return 0;

  std::string json = "{\n  \"bench\": \"micro_kernels\",\n";
  json += "  \"version\": \"" + std::string(falvolt::kFalvoltVersion) +
          "\",\n";
  json += "  \"simd\": \"" + std::string(compute::simd_backend()) + "\",\n";
  json += "  \"threads\": " + std::to_string(compute::global_threads()) +
          ",\n";
  json += "  \"gemm_tiers\": [\n" + gemm_rows + "  ],\n";
  json += "  \"faulty_gemm\": [\n" + faulty_rows + "  ],\n";
  json += "  \"cycle_sim\": [\n" + cycle_rows + "  ]\n}\n";
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write " + json_path);
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("[micro_kernels] JSON summary written to %s\n",
              json_path.c_str());
  return 0;
} catch (const bench::UsageError& e) {
  return bench::usage_exit("micro_kernels", e);
} catch (const std::exception& e) {
  std::fprintf(stderr, "micro_kernels: %s\n", e.what());
  return 1;
}
