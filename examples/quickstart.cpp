// Quickstart: the full FalVolt flow in ~80 lines.
//
//   1. Build a synthetic MNIST-like dataset and the paper's PLIF network.
//   2. Train the fault-free baseline.
//   3. Inject stuck-at faults into a simulated 64x64 systolic array and
//      watch the accuracy collapse.
//   4. Mitigate with FalVolt (Algorithm 1) and recover.
//
// Build & run:  ./build/examples/quickstart [--fast]

#include <cstdio>

#include "common/cli.h"
#include "core/experiment.h"
#include "core/falvolt.h"
#include "core/fap.h"
#include "fault/fault_generator.h"

using namespace falvolt;

int main(int argc, char** argv) {
  common::CliFlags cli("quickstart");
  cli.add_bool("fast", false, "smaller dataset / fewer epochs");
  cli.add_int("threads", 0,
              "compute worker threads (0 = $FALVOLT_THREADS, else the "
              "hardware concurrency)");
  if (!cli.parse_or_exit(argc, argv)) return 0;
  if (cli.get_int("threads") < 0) {
    std::fprintf(stderr, "quickstart: --threads must be >= 0 (see --help)\n");
    return 2;
  }

  // 1-2. Dataset + trained baseline (trained in memory on every run).
  core::WorkloadOptions opts;
  opts.fast = cli.get_bool("fast");
  opts.threads = static_cast<int>(cli.get_int("threads"));
  core::Workload wl = core::prepare_workload(core::DatasetKind::kMnist, opts);
  std::printf("baseline accuracy: %.2f%%\n", wl.baseline_accuracy);

  // 3. A 64x64 accelerator where 30%% of the PEs have a stuck-at-1 fault
  //    in the accumulator sign bit (the worst case).
  systolic::ArrayConfig array;
  array.rows = array.cols = 64;
  common::Rng rng(1);
  const fault::FaultMap map = fault::fault_map_at_rate(
      array.rows, array.cols, 0.30,
      fault::worst_case_spec(array.format.total_bits()), rng);
  std::printf("injected faults: %d of %d PEs (%.1f%%)\n",
              map.num_faulty_pes(), map.total_pes(),
              100.0 * map.fault_rate());

  const double faulty = core::evaluate_with_faults(
      wl.net, wl.data.test, array, map,
      systolic::SystolicGemmEngine::FaultHandling::kCorrupt);
  std::printf("unmitigated faulty-chip accuracy: %.2f%%\n", faulty);

  // 4a. Fault-aware pruning alone (bypass the faulty PEs).
  const auto baseline_params = wl.net.snapshot_params();
  const core::MitigationResult fap =
      core::run_fap(wl.net, map, wl.data.test);
  std::printf("FaP (prune only): %.2f%%\n", fap.final_accuracy);

  // 4b. FalVolt: prune + retrain with per-layer learnable V_th.
  wl.net.restore_params(baseline_params);
  core::MitigationConfig cfg;
  cfg.array = array;
  cfg.retrain_epochs =
      core::default_retrain_epochs(core::DatasetKind::kMnist, opts.fast);
  const core::MitigationResult falvolt =
      core::run_falvolt(wl.net, map, wl.data.train, wl.data.test, cfg);
  std::printf("FalVolt (prune + V_th-aware retraining): %.2f%%\n",
              falvolt.final_accuracy);

  std::printf("\nlearned per-layer thresholds:\n");
  for (const auto& v : falvolt.vth_per_layer) {
    std::printf("  %-10s V_th = %.3f\n", v.layer.c_str(), v.vth);
  }
  std::printf("\nsummary: baseline %.1f%% -> faulty %.1f%% -> FaP %.1f%% "
              "-> FalVolt %.1f%%\n",
              wl.baseline_accuracy, faulty, fap.final_accuracy,
              falvolt.final_accuracy);
  return 0;
}
