// Fig. 6 — optimized per-layer threshold voltages returned by FalVolt.
//
// Reproduces: FalVolt run at 10% / 30% / 60% faulty PEs (MSB sa1, 256x256
// array) for all three datasets; reports the learned V_th of every hidden
// convolutional and fully connected spiking layer.
//
// The grid and scenario function live in bench/grids/fig6_grid.cpp
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
      core::GridRegistry::instance().get("fig6_vth_layers");
  common::CliFlags cli(def.name);
  fb::add_common_flags(cli);
  def.add_flags(cli);
  if (!cli.parse_or_exit(argc, argv)) return 0;
  fb::ExecScope obs(cli);

  fb::banner("Fig. 6", def.title);

  const std::vector<core::DatasetKind> kinds = fb::fig6::kinds(cli);
  const std::vector<core::Scenario> scenarios = def.scenarios(cli);

  const core::SweepStoreOptions store =
      fb::store_options(cli, def.name, def.aggregation_only);
  if (fb::list_scenarios(cli, store, scenarios)) return 0;

  // Outputs open before the sweep so an unwritable CWD fails fast.
  common::CsvWriter csv(fb::csv_path(cli, def.name),
                        {"dataset", "fault_rate_percent", "layer", "vth",
                         "final_accuracy"});
  fb::probe_sweep_json(cli, def.name);

  const core::ResultTable results =
      fb::run_bench_grid(cli, def, store, scenarios);

  fb::write_scenario_rows(csv, results);

  // One table per dataset: rows = fault rates, cols = hidden layers
  // (names recovered from the "vth:<layer>" metric labels).
  if (fb::sweep_complete(results)) {
    for (const auto kind : kinds) {
      std::vector<std::string> header = {"faulty"};
      const auto& first_metrics =
          results.get(fb::fig6::cell_key(kind, fb::fig6::rates().front()))
              .metrics;
      for (std::size_t m = 1; m < first_metrics.size(); ++m) {
        header.push_back(first_metrics[m].first.substr(4));
      }
      common::TextTable table(header);
      for (const double rate : fb::fig6::rates()) {
        const core::ScenarioResult& r =
            results.get(fb::fig6::cell_key(kind, rate));
        std::vector<double> row;
        for (std::size_t m = 1; m < r.metrics.size(); ++m) {
          row.push_back(r.metrics[m].second);
        }
        table.row_labeled(common::TextTable::format(rate * 100, 0) + "%",
                          row, 3);
      }
      std::printf("\nOptimized V_th per hidden layer — %s:\n",
                  core::dataset_name(kind));
      table.print();
      std::printf("\n");
    }
  }
  fb::emit_sweep_summary(cli, def.name, results);
  std::printf("Expected shape (paper): early conv / first FC layers keep "
              "higher thresholds than later layers so redundant spikes do "
              "not reach the output.\n");
  return 0;
}
