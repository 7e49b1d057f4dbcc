// Chip-salvage triage: the yield-recovery scenario from the paper's
// introduction.
//
// A fab lot of systolicSNN chips comes back with random manufacturing
// defects. Discarding every defective die wastes yield; re-execution
// costs latency and energy. This example runs the full per-chip flow:
//
//   for each manufactured chip:
//     1. post-fabrication scan test  -> fault map
//     2. if the chip is clean        -> ship as grade A
//     3. else run FalVolt against its unique fault map
//        - recovered to within 2 points of baseline -> grade B (salvaged)
//        - otherwise                                -> scrap
//
// and reports the yield with and without FalVolt, plus the area cost of
// the bypass circuitry and the latency cost of the re-execution
// alternative from the cost model.
//
// Build & run:  ./build/examples/chip_salvage_triage [--chips 6]

#include <cstdio>

#include "common/cli.h"
#include "core/experiment.h"
#include "core/falvolt.h"
#include "fault/fault_generator.h"
#include "fault/post_fab_test.h"
#include "systolic/cost_model.h"

using namespace falvolt;

int main(int argc, char** argv) {
  common::CliFlags cli("chip_salvage_triage");
  cli.add_int("chips", 6, "chips in the manufactured lot");
  cli.add_double("defect-rate", 0.18,
                 "mean fraction of defective PEs on a bad die");
  cli.add_bool("fast", true, "smaller dataset / fewer epochs");
  if (!cli.parse_or_exit(argc, argv)) return 0;

  core::WorkloadOptions opts;
  opts.fast = cli.get_bool("fast");
  core::Workload wl = core::prepare_workload(core::DatasetKind::kMnist, opts);
  const auto baseline_params = wl.net.snapshot_params();
  std::printf("golden-model baseline: %.2f%%\n\n", wl.baseline_accuracy);

  systolic::ArrayConfig array;
  array.rows = array.cols = 64;
  const int chips = static_cast<int>(cli.get_int("chips"));
  const double accept_drop = 2.0;

  common::Rng lot_rng(2024);
  int grade_a = 0, grade_b = 0, scrapped = 0;
  for (int chip_id = 0; chip_id < chips; ++chip_id) {
    // Manufacture: some dies are clean, others have clustered defects.
    const bool defective = lot_rng.bernoulli(0.7);
    const int defects =
        defective ? 1 + static_cast<int>(lot_rng.uniform_int(
                            static_cast<std::uint64_t>(
                                cli.get_double("defect-rate") *
                                array.total_pes())))
                  : 0;
    fault::FabricatedChip chip = [&] {
      fault::FaultSpec spec;
      spec.bit = -1;
      spec.word_bits = array.format.total_bits();
      spec.random_type = true;
      common::Rng defect_rng = lot_rng.split();
      return fault::FabricatedChip(
          fault::random_fault_map(array.rows, array.cols, defects, spec,
                                  defect_rng),
          array.format);
    }();

    // 1. Post-fab test recovers the fault map from scan patterns.
    const fault::TestOutcome tested = fault::run_post_fab_test(chip);
    std::printf("chip %d: %d faulty PEs detected (%d scan ops)\n", chip_id,
                tested.recovered.num_faulty_pes(), tested.scan_operations);

    if (tested.recovered.empty()) {
      std::printf("  clean die -> grade A\n");
      ++grade_a;
      continue;
    }

    // 2. FalVolt against this die's unique map.
    wl.net.restore_params(baseline_params);
    core::MitigationConfig cfg;
    cfg.array = array;
    cfg.retrain_epochs =
        core::default_retrain_epochs(core::DatasetKind::kMnist, opts.fast);
    cfg.eval_each_epoch = false;
    const core::MitigationResult r = core::run_falvolt(
        wl.net, tested.recovered, wl.data.train, wl.data.test, cfg);
    std::printf("  pruned %.1f%% of weights; FaP %.1f%% -> FalVolt %.1f%%",
                100.0 * r.prune_report[1].pruned_fraction(),
                r.pruned_accuracy, r.final_accuracy);
    if (r.final_accuracy >= wl.baseline_accuracy - accept_drop) {
      std::printf(" -> grade B (salvaged)\n");
      ++grade_b;
    } else {
      std::printf(" -> scrap\n");
      ++scrapped;
    }
  }

  std::printf("\nlot summary: %d chips | grade A %d | salvaged %d | "
              "scrapped %d\n",
              chips, grade_a, grade_b, scrapped);
  std::printf("yield without FalVolt: %.0f%%   with FalVolt: %.0f%%\n",
              100.0 * grade_a / chips,
              100.0 * (grade_a + grade_b) / chips);

  // Hardware economics from the cost model.
  const systolic::AreaReport area = systolic::estimate_area(array);
  std::printf("\nbypass circuitry overhead: %.1f%% of array area "
              "(%.2f -> %.2f mm^2)\n",
              100.0 * area.bypass_overhead_fraction, area.array_area_mm2,
              area.array_area_bypass_mm2);
  const systolic::GemmCost one = systolic::estimate_gemm(
      array, 256, 288, 32, 0.3);
  const systolic::GemmCost triple = systolic::estimate_reexecution(one, 3);
  std::printf("re-execution alternative (3x redundancy): %.1f us vs %.1f "
              "us per layer, %.1fx energy — the overhead FalVolt avoids\n",
              triple.latency_us, one.latency_us,
              triple.energy_nj / one.energy_nj);
  return 0;
}
