// Micro-benchmarks (google-benchmark) for the library's hot kernels:
// float GEMM (naive vs blocked vs pool-parallel across 64^3..512^3), the
// fixed-point faulty-GEMM engine (clean / corrupt / bypass, vectorized vs
// forced-scalar), the register-level cycle simulator, PLIF
// forward/backward, a Conv2d training step at the MNIST model's layer
// shapes, prune-mask construction, fault-map generation, and post-fab
// test.
//
// Usage:
//   micro_kernels [--out_dir=DIR] [--json=NAME] [--threads=N]
//                 [google-benchmark flags]
//
// The perf-trajectory sweeps (GEMM tiers, faulty-GEMM engine, cycle sim)
// run first and write one machine-readable summary to --json (default
// micro_kernels.json, 'none' disables); google-benchmark then runs the
// registered micro-benchmarks as usual. --out_dir places every relative
// output under DIR, created with parents (default bench_out/ — CI and
// local runs stop littering the invocation CWD; pass --out_dir= to
// write relative paths as-is).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "common/version.h"
#include "compute/gemm_kernels.h"
#include "compute/simd.h"
#include "compute/thread_pool.h"
#include "fault/fault_generator.h"
#include "fault/post_fab_test.h"
#include "fault/prune_mask.h"
#include "obs/metrics.h"
#include "snn/conv2d.h"
#include "snn/plif.h"
#include "systolic/cycle_sim.h"
#include "systolic/faulty_gemm.h"
#include "tensor/gemm.h"

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

void BM_FloatGemm(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int k = 72, n = 8;
  const tensor::Tensor a = random_spikes(m, k, 1);
  const tensor::Tensor w = random_weights(k, n, 2);
  tensor::Tensor c({m, n});
  for (auto _ : state) {
    tensor::gemm(a.data(), w.data(), c.data(), m, k, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(m) * k *
                          n);
}
BENCHMARK(BM_FloatGemm)->Arg(64)->Arg(256)->Arg(1024);

// Square-GEMM tier comparison: the seed's naive kernel vs the compute
// backend's blocked kernel, serial and pool-parallel.

enum class GemmTier { kNaive, kBlocked, kParallel };

void square_gemm_bench(benchmark::State& state, GemmTier tier) {
  const int s = static_cast<int>(state.range(0));
  const tensor::Tensor a = random_weights(s, s, 41);
  const tensor::Tensor b = random_weights(s, s, 42);
  tensor::Tensor c({s, s});
  for (auto _ : state) {
    switch (tier) {
      case GemmTier::kNaive:
        compute::gemm_naive(a.data(), b.data(), c.data(), s, s, s);
        break;
      case GemmTier::kBlocked:
        compute::gemm_blocked(a.data(), b.data(), c.data(), s, s, s);
        break;
      case GemmTier::kParallel:
        compute::gemm_blocked(a.data(), b.data(), c.data(), s, s, s,
                              /*accumulate=*/false,
                              compute::global_threads());
        break;
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(s) * s *
                          s);
}

void BM_GemmNaive(benchmark::State& state) {
  square_gemm_bench(state, GemmTier::kNaive);
}
void BM_GemmBlocked(benchmark::State& state) {
  square_gemm_bench(state, GemmTier::kBlocked);
}
void BM_GemmParallel(benchmark::State& state) {
  square_gemm_bench(state, GemmTier::kParallel);
}
BENCHMARK(BM_GemmNaive)->Arg(64)->Arg(128)->Arg(256)->Arg(512);
BENCHMARK(BM_GemmBlocked)->Arg(64)->Arg(128)->Arg(256)->Arg(512);
BENCHMARK(BM_GemmParallel)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_SystolicEngineClean(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int k = 72, n = 8;
  systolic::ArrayConfig cfg;  // 256x256
  systolic::SystolicGemmEngine engine(cfg, nullptr);
  const tensor::Tensor a = random_spikes(m, k, 3);
  const tensor::Tensor w = random_weights(k, n, 4);
  tensor::Tensor c({m, n});
  for (auto _ : state) {
    engine.run(a.data(), w.data(), c.data(), m, k, n, "L");
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(m) * k *
                          n);
}
BENCHMARK(BM_SystolicEngineClean)->Arg(64)->Arg(256);

void BM_SystolicEngineCorrupt(benchmark::State& state) {
  const int faults = static_cast<int>(state.range(0));
  const int m = 256, k = 72, n = 8;
  systolic::ArrayConfig cfg;
  common::Rng rng(5);
  const fault::FaultMap map = fault::random_fault_map(
      cfg.rows, cfg.cols, faults,
      fault::worst_case_spec(cfg.format.total_bits()), rng);
  systolic::SystolicGemmEngine engine(cfg, &map);
  const tensor::Tensor a = random_spikes(m, k, 6);
  const tensor::Tensor w = random_weights(k, n, 7);
  tensor::Tensor c({m, n});
  for (auto _ : state) {
    engine.run(a.data(), w.data(), c.data(), m, k, n, "L");
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_SystolicEngineCorrupt)->Arg(8)->Arg(64)->Arg(4096);

void BM_SystolicEngineBypass(benchmark::State& state) {
  const int m = 256, k = 72, n = 8;
  systolic::ArrayConfig cfg;
  common::Rng rng(8);
  const fault::FaultMap map = fault::random_fault_map(
      cfg.rows, cfg.cols, 64,
      fault::worst_case_spec(cfg.format.total_bits()), rng);
  systolic::SystolicGemmEngine engine(
      cfg, &map, systolic::SystolicGemmEngine::FaultHandling::kBypass);
  const tensor::Tensor a = random_spikes(m, k, 9);
  const tensor::Tensor w = random_weights(k, n, 10);
  tensor::Tensor c({m, n});
  for (auto _ : state) {
    engine.run(a.data(), w.data(), c.data(), m, k, n, "L");
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_SystolicEngineBypass);

void BM_CycleSimulator(benchmark::State& state) {
  const int n_pe = static_cast<int>(state.range(0));
  systolic::ArrayConfig cfg;
  cfg.rows = cfg.cols = n_pe;
  systolic::SystolicArraySim sim(cfg, nullptr);
  const tensor::Tensor a = random_spikes(16, 2 * n_pe, 11);
  const tensor::Tensor w = random_weights(2 * n_pe, n_pe, 12);
  for (auto _ : state) {
    systolic::CycleStats stats;
    const tensor::Tensor c = sim.matmul(a, w, &stats);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_CycleSimulator)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_PlifForward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  snn::Plif plif("p");
  common::Rng rng(13);
  tensor::Tensor x({1, n});
  for (auto& v : x) v = static_cast<float>(rng.uniform(0.0, 2.0));
  for (auto _ : state) {
    plif.reset_state();
    for (int t = 0; t < 4; ++t) {
      benchmark::DoNotOptimize(plif.forward(x, t, snn::Mode::kEval));
    }
  }
  state.SetItemsProcessed(state.iterations() * 4 * n);
}
BENCHMARK(BM_PlifForward)->Arg(1024)->Arg(16384);

void BM_PlifTrainStep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  snn::PlifConfig pc;
  pc.train_vth = true;
  snn::Plif plif("p", pc);
  common::Rng rng(14);
  tensor::Tensor x({1, n});
  tensor::Tensor g({1, n});
  for (auto& v : x) v = static_cast<float>(rng.uniform(0.0, 2.0));
  for (auto& v : g) v = static_cast<float>(rng.uniform(-0.1, 0.1));
  for (auto _ : state) {
    plif.reset_state();
    for (int t = 0; t < 4; ++t) {
      benchmark::DoNotOptimize(plif.forward(x, t, snn::Mode::kTrain));
    }
    for (int t = 3; t >= 0; --t) {
      benchmark::DoNotOptimize(plif.backward(g, t));
    }
  }
  state.SetItemsProcessed(state.iterations() * 8 * n);
}
BENCHMARK(BM_PlifTrainStep)->Arg(1024)->Arg(16384);

// One BPTT time step (forward, then backward) of a 3x3 Conv2d at the MNIST
// model's real shapes: batch 32, Cin -> 8 channels on an HxH map, ~15%
// binary spike input (the first layer's input is a spike encoding too).
// Items are the three GEMMs' multiply-adds: output, weight gradient and
// input gradient.
void BM_ConvTrainStep(benchmark::State& state) {
  const int cin = static_cast<int>(state.range(0));
  const int hw = static_cast<int>(state.range(1));
  constexpr int kBatch = 32;
  constexpr int kCout = 8;
  common::Rng rng(16);
  snn::Conv2d conv("conv", cin, kCout, 3, 1, rng);
  tensor::Tensor x({kBatch, cin, hw, hw});
  for (auto& v : x) v = rng.bernoulli(0.15) ? 1.0f : 0.0f;
  tensor::Tensor g({kBatch, kCout, hw, hw});
  for (auto& v : g) v = static_cast<float>(rng.uniform(-0.1, 0.1));
  for (auto _ : state) {
    conv.reset_state();
    benchmark::DoNotOptimize(conv.forward(x, 0, snn::Mode::kTrain));
    benchmark::DoNotOptimize(conv.backward(g, 0));
  }
  state.SetItemsProcessed(state.iterations() * 3LL * kBatch * hw * hw *
                          conv.gemm_k() * kCout);
  state.SetLabel(std::to_string(cin) + "->8 " + std::to_string(hw) + "x" +
                 std::to_string(hw));
}
BENCHMARK(BM_ConvTrainStep)->Args({1, 16})->Args({8, 16})->Args({8, 8});

void BM_PruneMaskBuild(benchmark::State& state) {
  common::Rng rng(15);
  const fault::FaultMap map = fault::random_fault_map(
      256, 256, static_cast<int>(state.range(0)),
      fault::worst_case_spec(16), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fault::build_prune_mask(map, 288, 32));
  }
}
BENCHMARK(BM_PruneMaskBuild)->Arg(64)->Arg(4096)->Arg(39321);

void BM_FaultMapGeneration(benchmark::State& state) {
  common::Rng rng(16);
  const fault::FaultSpec spec = fault::worst_case_spec(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fault::random_fault_map(
        256, 256, static_cast<int>(state.range(0)), spec, rng));
  }
}
BENCHMARK(BM_FaultMapGeneration)->Arg(8)->Arg(4096);

void BM_PostFabTest(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  common::Rng rng(17);
  const fault::FabricatedChip chip = fault::fabricate_random_chip(
      n, n, n / 4, fx::FixedFormat::q8_8(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fault::run_post_fab_test(chip));
  }
  state.SetItemsProcessed(state.iterations() * n * n * 4);
}
BENCHMARK(BM_PostFabTest)->Arg(16)->Arg(64)->Arg(256);

// ------------------------------------------------- GEMM sweep + JSON

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
      benchmark::DoNotOptimize(c.data());
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

bool write_text_file(const std::string& path, const std::string& text,
                     const char* what) {
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(text.c_str(), f);
    std::fclose(f);
    std::printf("[%s] JSON summary written to %s\n", what, path.c_str());
    return true;
  }
  std::fprintf(stderr, "[%s] cannot write %s\n", what, path.c_str());
  return false;
}

}  // namespace

int main(int argc, char** argv) try {
  // Peel off our flags; everything else goes to google-benchmark.
  std::string out_dir = "bench_out";
  std::string json_name = "micro_kernels.json";
  std::vector<char*> bench_argv = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out_dir=", 10) == 0) {
      out_dir = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_name = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      compute::set_global_threads(std::atoi(argv[i] + 10));
    } else {
      bench_argv.push_back(argv[i]);
    }
  }

  const std::string gemm_rows = run_gemm_sweep({64, 128, 256, 512});
  const std::string faulty_rows = run_faulty_gemm_sweep();
  const std::string cycle_rows = run_cycle_sim_sweep();

  if (!json_name.empty() && json_name != "none") {
    std::string json = "{\n  \"bench\": \"micro_kernels\",\n";
    json += "  \"version\": \"" + std::string(falvolt::kFalvoltVersion) +
            "\",\n";
    json += "  \"simd\": \"" + std::string(compute::simd_backend()) +
            "\",\n";
    json += "  \"threads\": " + std::to_string(compute::global_threads()) +
            ",\n";
    json += "  \"gemm_tiers\": [\n" + gemm_rows + "  ],\n";
    json += "  \"faulty_gemm\": [\n" + faulty_rows + "  ],\n";
    json += "  \"cycle_sim\": [\n" + cycle_rows + "  ]\n}\n";
    write_text_file(resolve_out_path(out_dir, json_name), json,
                    "micro_kernels");
  }
  std::printf("\n");

  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "micro_kernels: %s\n", e.what());
  return 1;
}
