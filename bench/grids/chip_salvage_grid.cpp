// Chip-salvage triage grid — the yield-recovery workload from the
// paper's introduction, expressed as registered scenarios so the fleet
// can sweep, cache, and shard it like any figure grid.
//
// Each cell is one manufactured chip of the lot: its defect map is
// scan-tested post-fab, a clean die ships as grade A, a defective die
// runs FalVolt against its recovered map and is salvaged (grade B) when
// it recovers to within --accept-drop points of the golden-model
// baseline. Each cell derives its defect population from its own seed,
// so cells are order-independent and content-addressable.
//
// Run it with `sweep_fleet --grids chip_salvage_triage --store <dir>`;
// the per-die grades land in ./chip_salvage_triage.csv.

#include "bench_common.h"
#include "core/grid_registry.h"
#include "fault/post_fab_test.h"
#include "grids/grids.h"

namespace falvolt::bench::chip_salvage {

namespace {

std::string cell_key(int chip) { return "chip=" + std::to_string(chip); }

}  // namespace

/// Deterministic defect count of one chip: ~30% of dies are clean, the
/// rest carry 1..(defect_rate * total_pes) random stuck-bit defects.
/// Shared by the grid builder (which needs it up front to tag retrain
/// cost) and the scenario key scheme.
int chip_defects(int chip, double defect_rate, int total_pes) {
  common::Rng lot(9000 + static_cast<std::uint64_t>(chip));
  if (!lot.bernoulli(0.7)) return 0;
  const std::uint64_t ceiling = static_cast<std::uint64_t>(
      defect_rate * static_cast<double>(total_pes));
  // A rate/array small enough that the ceiling truncates to zero still
  // means "defective die": it carries the minimum one defect
  // (Rng::uniform_int(0) would throw).
  if (ceiling == 0) return 1;
  return 1 + static_cast<int>(lot.uniform_int(ceiling));
}

void register_grid() {
  core::GridDef def;
  def.name = "chip_salvage_triage";
  def.datasets = {core::DatasetKind::kMnist};
  def.title =
      "Yield recovery over a fab lot: post-fab scan test + FalVolt "
      "salvage per defective die (MNIST)";
  def.add_flags = [](common::CliFlags& cli) {
    cli.add_int("chips", 6, "chips in the manufactured lot");
    cli.add_double("defect-rate", 0.18,
                   "mean fraction of defective PEs on a bad die");
    cli.add_int("epochs", 0, "salvage retraining epochs (0 = default)");
    cli.add_double("accept-drop", 2.0,
                   "max accuracy drop vs baseline (points) to still ship "
                   "a salvaged die");
  };
  def.scenarios = [](const common::CliFlags& cli) {
    (void)dataset_list(cli, {core::DatasetKind::kMnist});
    const systolic::ArrayConfig array = experiment_array(cli);
    const double defect_rate = cli.get_double("defect-rate");
    const int epochs =
        retrain_epochs_flag(cli, core::DatasetKind::kMnist);
    std::vector<core::Scenario> scenarios;
    for (int chip = 0; chip < static_cast<int>(cli.get_int("chips"));
         ++chip) {
      const int defects =
          chip_defects(chip, defect_rate, array.total_pes());
      core::Scenario s;
      s.key = cell_key(chip);
      s.tag = defects == 0 ? "clean" : "defective";
      s.dataset = core::DatasetKind::kMnist;
      s.fault_count = defects;
      s.repeat = chip;
      s.fault_seed = 9000 + static_cast<std::uint64_t>(chip);
      // A clean die never retrains — it is a pure scan test — so only
      // defective dies are tagged with the salvage retraining cost.
      s.retrain = defects > 0;
      s.epochs = defects > 0 ? epochs : 0;
      scenarios.push_back(s);
    }
    return scenarios;
  };
  def.scenario_fn = [](const common::CliFlags& cli,
                       const core::SweepContext&) {
    const systolic::ArrayConfig array = experiment_array(cli);
    const double accept_drop = cli.get_double("accept-drop");
    return [array, accept_drop](const core::Scenario& s,
                                const core::SweepContext& c) {
      const core::Workload& wl = c.workload(s.dataset);
      // Manufacture this die: random stuck types across the word, count
      // fixed by the scenario (derived in the grid builder).
      fault::FaultSpec spec;
      spec.bit = -1;
      spec.word_bits = array.format.total_bits();
      spec.random_type = true;
      common::Rng defect_rng(s.fault_seed);
      const fault::FabricatedChip chip(
          fault::random_fault_map(array.rows, array.cols, s.fault_count,
                                  spec, defect_rng),
          array.format);

      // Post-fab test recovers the map from scan patterns.
      const fault::TestOutcome tested = fault::run_post_fab_test(chip);
      core::ScenarioResult out;
      logf(out.log, "  chip %d: %d faulty PEs detected (%d scan ops)",
           s.repeat, tested.recovered.num_faulty_pes(),
           tested.scan_operations);
      if (tested.recovered.empty()) {
        logf(out.log, " -> grade A\n");
        out.metrics = {{"detected_faults", 0.0},
                       {"accuracy", wl.baseline_accuracy},
                       {"salvaged", 1.0},
                       {"grade_a", 1.0}};
        out.csv_rows = {{std::to_string(s.repeat), "A", "0",
                         common::CsvWriter::format(wl.baseline_accuracy)}};
        return out;
      }

      // FalVolt against this die's unique recovered map.
      snn::Network net = c.clone_network(s.dataset);
      core::MitigationConfig cfg;
      cfg.array = array;
      cfg.retrain_epochs = s.epochs;
      cfg.eval_each_epoch = false;
      const core::MitigationResult r = core::run_falvolt(
          net, tested.recovered, wl.data.train, wl.data.test, cfg);
      const bool salvaged =
          r.final_accuracy >= wl.baseline_accuracy - accept_drop;
      logf(out.log, "; FaP %.1f%% -> FalVolt %.1f%% -> %s\n",
           r.pruned_accuracy, r.final_accuracy,
           salvaged ? "grade B (salvaged)" : "scrap");
      out.metrics = {
          {"detected_faults",
           static_cast<double>(tested.recovered.num_faulty_pes())},
          {"accuracy", r.final_accuracy},
          {"salvaged", salvaged ? 1.0 : 0.0},
          {"grade_a", 0.0}};
      out.csv_rows = {{std::to_string(s.repeat), salvaged ? "B" : "scrap",
                       std::to_string(tested.recovered.num_faulty_pes()),
                       common::CsvWriter::format(r.final_accuracy)}};
      return out;
    };
  };
  def.aggregate = [](const common::CliFlags&,
                     const core::ResultTable& results) {
    core::Figure fig = scenario_rows_figure(
        {"chip", "grade", "detected_faults", "accuracy"}, results);
    int grade_a = 0, salvaged = 0;
    for (const std::vector<std::string>& row : fig.csv_rows) {
      grade_a += row[1] == "A";
      salvaged += row[1] == "B";
    }
    const int chips = static_cast<int>(fig.csv_rows.size());
    logf(fig.report,
         "lot summary: %d chips | grade A %d | salvaged %d | scrapped %d\n"
         "yield without FalVolt: %.0f%%   with FalVolt: %.0f%%\n",
         chips, grade_a, salvaged, chips - grade_a - salvaged,
         100.0 * grade_a / chips, 100.0 * (grade_a + salvaged) / chips);
    fig.report +=
        "\nExpected shape: FalVolt salvages defective dies, so yield with "
        "FalVolt exceeds the clean-die share of the lot.\n";
    return fig;
  };
  core::GridRegistry::instance().add(std::move(def));
}

}  // namespace falvolt::bench::chip_salvage
