// Fig. 6 — optimized per-layer threshold voltages returned by FalVolt.
//
// Reproduces: FalVolt run at 10% / 30% / 60% faulty PEs (MSB sa1, 256x256
// array) for all three datasets; reports the learned V_th of every hidden
// convolutional and fully connected spiking layer.
//
// Run it with `sweep_fleet --grids fig6_vth_layers --store <dir>`; the
// figure lands in ./fig6_vth_layers.csv.

#include "bench_common.h"
#include "core/grid_registry.h"
#include "grids/grids.h"

namespace falvolt::bench::fig6 {

namespace {

const std::vector<double>& rates() {
  static const std::vector<double> kRates = {0.10, 0.30, 0.60};
  return kRates;
}

std::vector<core::DatasetKind> kinds(const common::CliFlags& cli) {
  return dataset_list(cli, {core::DatasetKind::kMnist,
                            core::DatasetKind::kNMnist,
                            core::DatasetKind::kDvsGesture});
}

int epochs(const common::CliFlags& cli, core::DatasetKind kind) {
  return retrain_epochs_flag(cli, kind);
}

std::string cell_key(core::DatasetKind kind, double rate) {
  return std::string(core::dataset_name(kind)) + "/rate=" +
         common::TextTable::format(rate * 100, 0);
}

}  // namespace

void register_grid() {
  core::GridDef def;
  def.name = "fig6_vth_layers";
  def.datasets = {core::DatasetKind::kMnist, core::DatasetKind::kNMnist,
                  core::DatasetKind::kDvsGesture};
  def.title =
      "Optimized per-layer threshold voltage after FalVolt at 10%/30%/60% "
      "faulty PEs";
  def.add_flags = [](common::CliFlags& cli) {
    cli.add_int("epochs", 0, "retraining epochs (0 = per-dataset default)");
  };
  def.scenarios = [](const common::CliFlags& cli) {
    std::vector<core::Scenario> scenarios;
    for (const auto kind : kinds(cli)) {
      const int cell_epochs = epochs(cli, kind);
      for (const double rate : rates()) {
        core::Scenario s;
        s.key = cell_key(kind, rate);
        s.dataset = kind;
        s.fault_rate = rate;
        s.fault_seed = 5000 + static_cast<std::uint64_t>(rate * 100);
        s.retrain = true;
        s.epochs = cell_epochs;
        scenarios.push_back(s);
      }
    }
    return scenarios;
  };
  def.scenario_fn = [](const common::CliFlags& cli,
                       const core::SweepContext&) {
    const systolic::ArrayConfig array = experiment_array(cli);
    return [array](const core::Scenario& s, const core::SweepContext& ctx) {
      const core::Workload& wl = ctx.workload(s.dataset);
      snn::Network net = ctx.clone_network(s.dataset);
      common::Rng rng(s.fault_seed);
      const fault::FaultMap map = fault::fault_map_at_rate(
          array.rows, array.cols, s.fault_rate,
          fault::worst_case_spec(array.format.total_bits()), rng);
      core::MitigationConfig cfg;
      cfg.array = array;
      cfg.retrain_epochs = s.epochs;
      cfg.eval_each_epoch = false;
      const core::MitigationResult r =
          core::run_falvolt(net, map, wl.data.train, wl.data.test, cfg);

      core::ScenarioResult out;
      out.metrics = {{"accuracy", r.final_accuracy}};
      for (const auto& v : r.vth_per_layer) {
        out.metrics.emplace_back("vth:" + v.layer, v.vth);
        out.csv_rows.push_back(
            {std::string(core::dataset_name(s.dataset)),
             common::CsvWriter::format(s.fault_rate * 100), v.layer,
             common::CsvWriter::format(v.vth),
             common::CsvWriter::format(r.final_accuracy)});
      }
      logf(out.log, "  %-15s rate=%2.0f%% -> accuracy %.1f%%\n",
           core::dataset_name(s.dataset), s.fault_rate * 100,
           r.final_accuracy);
      return out;
    };
  };
  def.aggregate = [](const common::CliFlags& cli,
                     const core::ResultTable& results) {
    core::Figure fig = scenario_rows_figure(
        {"dataset", "fault_rate_percent", "layer", "vth", "final_accuracy"},
        results);
    // One table per dataset: rows = fault rates, cols = hidden layers
    // (names recovered from the "vth:<layer>" metric labels).
    for (const auto kind : kinds(cli)) {
      std::vector<std::string> header = {"faulty"};
      const auto& first_metrics =
          results.get(cell_key(kind, rates().front())).metrics;
      for (std::size_t m = 1; m < first_metrics.size(); ++m) {
        header.push_back(first_metrics[m].first.substr(4));
      }
      common::TextTable table(header);
      for (const double rate : rates()) {
        const core::ScenarioResult& r = results.get(cell_key(kind, rate));
        std::vector<double> row;
        for (std::size_t m = 1; m < r.metrics.size(); ++m) {
          row.push_back(r.metrics[m].second);
        }
        table.row_labeled(common::TextTable::format(rate * 100, 0) + "%",
                          row, 3);
      }
      logf(fig.report, "Optimized V_th per hidden layer — %s:\n",
           core::dataset_name(kind));
      fig.report += table.str() + "\n";
    }
    fig.report +=
        "Expected shape (paper): early conv / first FC layers keep higher "
        "thresholds than later layers so redundant spikes do not reach the "
        "output.\n";
    return fig;
  };
  core::GridRegistry::instance().add(std::move(def));
}

}  // namespace falvolt::bench::fig6
