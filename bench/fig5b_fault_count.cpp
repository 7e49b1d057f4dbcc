// Fig. 5b — classification accuracy vs number of faulty PEs.
//
// Reproduces: worst-case (MSB stuck-at-1) faults in {0, 4, 8, 16, 32, 40,
// 48, 56, 64} randomly placed PEs of a 256x256 systolicSNN, unmitigated
// inference, averaged over several distinct fault maps (the paper runs 8
// iterations per point). Headline number: 8 faulty PEs — 0.012% of the
// array — already halves the accuracy.
//
// The grid and scenario function live in bench/grids/fig5b_grid.cpp
// (registered into core::GridRegistry, so the sweep_fleet driver runs
// exactly the same cells); this main adds the figure's own table
// aggregation and CSV schema.

#include "bench_common.h"
#include "core/grid_registry.h"
#include "grids/grids.h"

namespace fb = falvolt::bench;
using namespace falvolt;

int main(int argc, char** argv) {
  fb::register_all_grids();
  const core::GridDef& def =
      core::GridRegistry::instance().get("fig5b_fault_count");
  common::CliFlags cli(def.name);
  fb::add_common_flags(cli);
  def.add_flags(cli);
  if (!cli.parse_or_exit(argc, argv)) return 0;
  fb::ExecScope obs(cli);

  fb::banner("Fig. 5b", def.title);

  const systolic::ArrayConfig array = fb::experiment_array(cli);
  const int repeats = fb::fig5b::repeats(cli);
  const std::vector<core::DatasetKind> kinds = fb::fig5b::kinds(cli);
  const std::vector<core::Scenario> scenarios = def.scenarios(cli);

  const core::SweepStoreOptions store =
      fb::store_options(cli, def.name, def.aggregation_only);
  if (fb::list_scenarios(cli, store, scenarios)) return 0;

  // Outputs open before the sweep so an unwritable CWD fails fast.
  common::CsvWriter csv(
      fb::csv_path(cli, def.name),
      {"dataset", "faulty_pes", "fault_rate_percent", "accuracy", "stddev"});
  fb::probe_sweep_json(cli, def.name);

  const core::ResultTable results =
      fb::run_bench_grid(cli, def, store, scenarios);

  if (fb::sweep_complete(results)) {
    std::vector<std::string> header = {"dataset"};
    for (const int c : fb::fig5b::counts()) {
      header.push_back(std::to_string(c));
    }
    common::TextTable table(header);

    for (const auto kind : kinds) {
      std::vector<double> row;
      for (const int count : fb::fig5b::counts()) {
        common::RunningStats acc;
        for (int rep = 0; rep < repeats; ++rep) {
          acc.add(results.get(fb::fig5b::cell_key(kind, count, rep))
                      .metrics.front()
                      .second);
        }
        row.push_back(acc.mean());
        csv.row({std::string(core::dataset_name(kind)),
                 std::to_string(count),
                 common::CsvWriter::format(100.0 * count /
                                           array.total_pes()),
                 common::CsvWriter::format(acc.mean()),
                 common::CsvWriter::format(acc.stddev())});
      }
      table.row_labeled(core::dataset_name(kind), row, 1);
    }
    std::printf("\nAccuracy [%%] vs number of faulty PEs (avg over %d "
                "fault maps):\n",
                repeats);
    table.print();
  }
  fb::emit_sweep_summary(cli, def.name, results);
  std::printf("\nExpected shape (paper): steep collapse by ~8 faulty PEs "
              "(0.012%% of the array); DVS-Gesture lowest throughout.\n");
  return 0;
}
