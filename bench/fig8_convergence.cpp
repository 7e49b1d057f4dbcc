// Fig. 8 — convergence: accuracy vs retraining epoch, FaPIT vs FalVolt.
//
// Reproduces: 30% faulty PEs (MSB sa1, 256x256 array); per-epoch test
// accuracy of FaPIT (V_th = 1.0) and FalVolt. The paper's claim: FalVolt
// reaches the baseline-accuracy band in about half the epochs of FaPIT
// ("2x faster").
//
// The grid and scenario function live in bench/grids/fig8_grid.cpp
// (registered into core::GridRegistry, so the sweep_fleet driver runs
// exactly the same cells); this main rebuilds the convergence summary
// from the per-epoch metrics ("epoch001", ...) afterwards.

#include "bench_common.h"
#include "core/grid_registry.h"
#include "grids/grids.h"

namespace fb = falvolt::bench;
using namespace falvolt;

int main(int argc, char** argv) {
  fb::register_all_grids();
  const core::GridDef& def =
      core::GridRegistry::instance().get("fig8_convergence");
  common::CliFlags cli(def.name);
  fb::add_common_flags(cli);
  def.add_flags(cli);
  if (!cli.parse_or_exit(argc, argv)) return 0;
  fb::ExecScope obs(cli);

  fb::banner("Fig. 8", def.title);

  const std::vector<core::DatasetKind> kinds = fb::fig8::kinds(cli);
  const std::vector<core::Scenario> scenarios = def.scenarios(cli);

  const core::SweepStoreOptions store =
      fb::store_options(cli, def.name, def.aggregation_only);
  if (fb::list_scenarios(cli, store, scenarios)) return 0;

  // Outputs open before the sweep so an unwritable CWD fails fast.
  common::CsvWriter csv(fb::csv_path(cli, def.name),
                        {"dataset", "method", "epoch", "accuracy"});
  fb::probe_sweep_json(cli, def.name);

  const core::ResultTable results =
      fb::run_bench_grid(cli, def, store, scenarios);

  fb::write_scenario_rows(csv, results);

  if (fb::sweep_complete(results)) {
    common::TextTable summary({"dataset", "FaPIT epochs-to-target",
                               "FalVolt epochs-to-target", "speedup"});
    for (const auto kind : kinds) {
      const core::ScenarioResult& fapit =
          results.get(fb::fig8::cell_key(kind, "FaPIT"));
      const core::ScenarioResult& falvolt =
          results.get(fb::fig8::cell_key(kind, "FalVolt"));
      const int epochs = fb::fig8::horizon(cli, kind);

      // metrics[0] is "baseline", metrics[e] is epoch e (1-based) — the
      // scenario function writes them in exactly that order.
      const auto epoch_acc = [&](const core::ScenarioResult& r, int e) {
        return r.metrics[static_cast<std::size_t>(e)].second;
      };
      common::TextTable curve({"epoch", "FaPIT", "FalVolt"});
      for (int e = 1; e <= epochs; ++e) {
        curve.row_labeled(std::to_string(e),
                          {epoch_acc(fapit, e), epoch_acc(falvolt, e)}, 1);
      }
      std::printf("\nAccuracy [%%] per retraining epoch — %s:\n",
                  core::dataset_name(kind));
      curve.print();

      // Same contract as MitigationResult::epochs_to_reach: first
      // 1-based epoch at or above the target, -1 when never reached.
      const double target =
          fapit.metrics.front().second - cli.get_double("target-drop");
      const auto epochs_to_reach = [&](const core::ScenarioResult& r) {
        for (int e = 1; e <= epochs; ++e) {
          if (epoch_acc(r, e) >= target) return e;
        }
        return -1;
      };
      const int e_fapit = epochs_to_reach(fapit);
      const int e_falvolt = epochs_to_reach(falvolt);
      const std::string speedup =
          (e_fapit > 0 && e_falvolt > 0)
              ? common::TextTable::format(
                    static_cast<double>(e_fapit) / e_falvolt, 2) + "x"
              : "n/a";
      summary.row({std::string(core::dataset_name(kind)),
                   e_fapit > 0 ? std::to_string(e_fapit) : ">horizon",
                   e_falvolt > 0 ? std::to_string(e_falvolt) : ">horizon",
                   speedup});
      std::printf("\n");
    }
    std::printf("Epochs to reach (baseline - %.1f) points:\n",
                cli.get_double("target-drop"));
    summary.print();
  }
  fb::emit_sweep_summary(cli, def.name, results);
  std::printf("\nExpected shape (paper): FalVolt converges in about half "
              "the epochs of FaPIT.\n");
  return 0;
}
