// Fig. 5a — classification accuracy vs stuck-at fault bit location.
//
// Reproduces: stuck-at-0 and stuck-at-1 faults injected at each output
// bit position of the PE accumulators of an (default) 256x256
// systolicSNN, 8 faulty PEs, unmitigated inference, for MNIST / N-MNIST /
// DVS-Gesture. The paper's finding: MSB faults (especially stuck-at-1 in
// the sign bit) collapse accuracy, LSB faults are nearly harmless.
//
// The grid and scenario function live in bench/grids/fig5a_grid.cpp
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
      core::GridRegistry::instance().get("fig5a_bit_position");
  common::CliFlags cli(def.name);
  fb::add_common_flags(cli);
  def.add_flags(cli);
  if (!cli.parse_or_exit(argc, argv)) return 0;
  fb::ExecScope obs(cli);

  fb::banner("Fig. 5a", def.title);

  const systolic::ArrayConfig array = fb::experiment_array(cli);
  const std::vector<int> bits = fb::fig5a::bits(array.format.total_bits());
  const int repeats = fb::fig5a::repeats(cli);
  const int n_faulty = static_cast<int>(cli.get_int("faulty-pes"));
  const std::vector<core::DatasetKind> kinds = fb::fig5a::kinds(cli);
  const std::vector<core::Scenario> scenarios = def.scenarios(cli);

  const core::SweepStoreOptions store =
      fb::store_options(cli, def.name, def.aggregation_only);
  if (fb::list_scenarios(cli, store, scenarios)) return 0;

  // Outputs open before the sweep so an unwritable CWD fails fast.
  common::CsvWriter csv(fb::csv_path(cli, def.name),
                        {"dataset", "type", "bit", "accuracy"});
  fb::probe_sweep_json(cli, def.name);

  const core::ResultTable results =
      fb::run_bench_grid(cli, def, store, scenarios);

  if (fb::sweep_complete(results)) {
    std::vector<std::string> header = {"series"};
    for (const int b : bits) header.push_back("bit" + std::to_string(b));
    common::TextTable table(header);

    for (const auto kind : kinds) {
      for (const auto type : fb::fig5a::types()) {
        std::vector<double> row;
        for (const int bit : bits) {
          common::RunningStats acc;
          for (int rep = 0; rep < repeats; ++rep) {
            acc.add(results.get(fb::fig5a::cell_key(kind, type, bit, rep))
                        .metrics.front()
                        .second);
          }
          row.push_back(acc.mean());
          csv.row({std::string(core::dataset_name(kind)),
                   fb::fig5a::type_name(type), std::to_string(bit),
                   common::CsvWriter::format(acc.mean())});
        }
        table.row_labeled(std::string(fb::fig5a::type_name(type)) + "-" +
                              core::dataset_name(kind),
                          row, 1);
      }
    }
    std::printf("\nAccuracy [%%] vs accumulator fault bit (%d faulty PEs, "
                "%s array):\n",
                n_faulty, array.to_string().c_str());
    table.print();
  }
  fb::emit_sweep_summary(cli, def.name, results);
  std::printf("\nExpected shape (paper): accuracy near baseline at LSBs, "
              "collapse at MSBs; sa1 worse than sa0.\n");
  return 0;
}
