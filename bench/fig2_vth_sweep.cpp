// Fig. 2 — motivational case study: retraining accuracy as a function of
// a manually chosen, fixed threshold voltage.
//
// Reproduces: MNIST and DVS-Gesture classifiers, 30% and 60% faulty PEs
// (MSB sa1) on a 256x256 array, fault-aware pruning followed by
// retraining with V_th frozen at each value in {0.45, 0.5, 0.55, 0.7}.
// The paper's point: the best fixed V_th depends on the dataset AND the
// fault rate, and a wrong pick costs tens of accuracy points — which is
// what motivates learning V_th (FalVolt).
//
// The grid and scenario function live in bench/grids/fig2_grid.cpp
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
      core::GridRegistry::instance().get("fig2_vth_sweep");
  common::CliFlags cli(def.name);
  fb::add_common_flags(cli);
  def.add_flags(cli);
  if (!cli.parse_or_exit(argc, argv)) return 0;
  fb::ExecScope obs(cli);

  fb::banner("Fig. 2", def.title);

  const std::vector<core::DatasetKind> kinds = fb::fig2::kinds(cli);
  const std::vector<core::Scenario> scenarios = def.scenarios(cli);

  const core::SweepStoreOptions store =
      fb::store_options(cli, def.name, def.aggregation_only);
  if (fb::list_scenarios(cli, store, scenarios)) return 0;

  // Outputs open before the sweep so an unwritable CWD fails fast.
  common::CsvWriter csv(fb::csv_path(cli, def.name),
                        {"dataset", "fault_rate_percent", "vth", "accuracy"});
  fb::probe_sweep_json(cli, def.name);

  const core::ResultTable results =
      fb::run_bench_grid(cli, def, store, scenarios);

  fb::write_scenario_rows(csv, results);

  if (fb::sweep_complete(results)) {
    std::vector<std::string> header = {"series"};
    for (const float v : fb::fig2::vths()) {
      header.push_back(common::TextTable::format(v, 2));
    }
    common::TextTable table(header);
    for (const auto kind : kinds) {
      for (const double rate : fb::fig2::rates()) {
        std::vector<double> row;
        for (const float vth : fb::fig2::vths()) {
          row.push_back(results.get(fb::fig2::cell_key(kind, rate, vth))
                            .metrics.front()
                            .second);
        }
        table.row_labeled(std::string(core::dataset_name(kind)) + "@" +
                              common::TextTable::format(rate * 100, 0) + "%",
                          row, 1);
      }
    }
    std::printf("\nRetrained accuracy [%%] per fixed threshold voltage:\n");
    table.print();
  }
  fb::emit_sweep_summary(cli, def.name, results);
  std::printf("\nExpected shape (paper): best V_th differs per dataset and "
              "fault rate; a bad fixed pick loses tens of points.\n");
  return 0;
}
