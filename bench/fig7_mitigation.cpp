// Fig. 7 — mitigation comparison: FaP vs FaPIT vs FalVolt.
//
// Reproduces: accuracy after each mitigation at 10% / 30% / 60% faulty
// PEs (MSB sa1, 256x256 array) on MNIST, N-MNIST and DVS-Gesture. The
// paper's claim: FaP collapses as the rate grows, FaPIT recovers
// partially, and only FalVolt stays at (near-)baseline accuracy up to
// 60% faults.
//
// The grid and scenario function live in bench/grids/fig7_grid.cpp
// (registered into core::GridRegistry, so the sweep_fleet driver runs
// exactly the same cells); this main adds the figure's own table
// aggregation.

#include "bench_common.h"
#include "core/grid_registry.h"
#include "grids/grids.h"

namespace fb = falvolt::bench;
using namespace falvolt;

int main(int argc, char** argv) {
  fb::register_all_grids();
  const core::GridDef& def =
      core::GridRegistry::instance().get("fig7_mitigation");
  common::CliFlags cli(def.name);
  fb::add_common_flags(cli);
  def.add_flags(cli);
  if (!cli.parse_or_exit(argc, argv)) return 0;
  fb::ExecScope obs(cli);

  fb::banner("Fig. 7", def.title);

  const std::vector<core::DatasetKind> kinds = fb::fig7::kinds(cli);
  const std::vector<core::Scenario> scenarios = def.scenarios(cli);

  const core::SweepStoreOptions store =
      fb::store_options(cli, def.name, def.aggregation_only);
  if (fb::list_scenarios(cli, store, scenarios)) return 0;

  // Outputs open before the sweep so an unwritable CWD fails fast.
  common::CsvWriter csv(fb::csv_path(cli, def.name),
                        {"dataset", "fault_rate_percent", "method",
                         "best_accuracy", "baseline"});
  fb::probe_sweep_json(cli, def.name);

  const core::ResultTable results =
      fb::run_bench_grid(cli, def, store, scenarios);

  fb::write_scenario_rows(csv, results);

  if (fb::sweep_complete(results)) {
    const std::vector<double>& rates = fb::fig7::rates();
    for (const auto kind : kinds) {
      // Baseline accuracy comes from the cells' own "baseline" metric,
      // not the runner's context: on a warm-store re-run no workload was
      // ever prepared, yet the replayed cells still carry it.
      const double baseline =
          results.get(fb::fig7::cell_key(kind, rates.front(), "FaP"))
              .metrics.back()
              .second;
      common::TextTable table({"faulty", "FaP", "FaPIT", "FalVolt"});
      for (const double rate : rates) {
        const double fap =
            results.get(fb::fig7::cell_key(kind, rate, "FaP"))
                .metrics.front()
                .second;
        const double fapit =
            results.get(fb::fig7::cell_key(kind, rate, "FaPIT"))
                .metrics.front()
                .second;
        const double falvolt =
            results.get(fb::fig7::cell_key(kind, rate, "FalVolt"))
                .metrics.front()
                .second;
        table.row_labeled(common::TextTable::format(rate * 100, 0) + "%",
                          {fap, fapit, falvolt}, 1);
        std::printf("  %-15s rate=%2.0f%%  FaP %.1f | FaPIT %.1f | FalVolt "
                    "%.1f (baseline %.1f)\n",
                    core::dataset_name(kind), rate * 100, fap, fapit,
                    falvolt, baseline);
      }
      std::printf("\nAccuracy [%%] — %s (baseline %.1f%%):\n",
                  core::dataset_name(kind), baseline);
      table.print();
      std::printf("\n");
    }
  }
  fb::emit_sweep_summary(cli, def.name, results);
  std::printf("Reported values are best checkpoints over the retraining run.\nExpected shape (paper): FaP degrades rapidly with rate; "
              "FaPIT recovers partially; FalVolt reaches (near-)baseline "
              "even at 60%%.\n");
  return 0;
}
