// Fig. 5c — classification accuracy vs systolic array size.
//
// Reproduces: 4 faulty PEs (MSB sa1) in arrays of 4x4 .. 256x256. Smaller
// arrays fold more weights onto each PE (higher reuse), so the same
// absolute number of faults does far more damage — the paper's
// array-reuse argument.
//
// The grid and scenario function live in bench/grids/fig5c_grid.cpp
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
      core::GridRegistry::instance().get("fig5c_array_size");
  common::CliFlags cli(def.name);
  fb::add_common_flags(cli);
  def.add_flags(cli);
  if (!cli.parse_or_exit(argc, argv)) return 0;
  fb::ExecScope obs(cli);

  fb::banner("Fig. 5c", def.title);

  const int repeats = fb::fig5c::repeats(cli);
  const int n_faulty = static_cast<int>(cli.get_int("faulty-pes"));
  const std::vector<core::DatasetKind> kinds = fb::fig5c::kinds(cli);
  const std::vector<core::Scenario> scenarios = def.scenarios(cli);

  const core::SweepStoreOptions store =
      fb::store_options(cli, def.name, def.aggregation_only);
  if (fb::list_scenarios(cli, store, scenarios)) return 0;

  // Outputs open before the sweep so an unwritable CWD fails fast.
  common::CsvWriter csv(fb::csv_path(cli, def.name),
                        {"dataset", "array", "total_pes", "accuracy",
                         "stddev"});
  fb::probe_sweep_json(cli, def.name);

  const core::ResultTable results =
      fb::run_bench_grid(cli, def, store, scenarios);

  if (fb::sweep_complete(results)) {
    std::vector<std::string> header = {"dataset"};
    for (const int s : fb::fig5c::sizes()) {
      header.push_back(std::to_string(s * s));  // paper plots total PEs
    }
    common::TextTable table(header);

    for (const auto kind : kinds) {
      std::vector<double> row;
      for (const int n : fb::fig5c::sizes()) {
        common::RunningStats acc;
        for (int rep = 0; rep < repeats; ++rep) {
          acc.add(results.get(fb::fig5c::cell_key(kind, n, rep))
                      .metrics.front()
                      .second);
        }
        row.push_back(acc.mean());
        csv.row({std::string(core::dataset_name(kind)),
                 std::to_string(n) + "x" + std::to_string(n),
                 std::to_string(n * n),
                 common::CsvWriter::format(acc.mean()),
                 common::CsvWriter::format(acc.stddev())});
      }
      table.row_labeled(core::dataset_name(kind), row, 1);
    }
    std::printf("\nAccuracy [%%] vs total number of PEs (%d faulty PEs, "
                "avg over %d maps):\n",
                n_faulty, repeats);
    table.print();
  }
  fb::emit_sweep_summary(cli, def.name, results);
  std::printf("\nExpected shape (paper): small arrays suffer far more from "
              "the same absolute fault count (array reuse).\n");
  return 0;
}
