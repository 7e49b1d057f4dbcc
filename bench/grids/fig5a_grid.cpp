// Fig. 5a — classification accuracy vs stuck-at fault bit location.
//
// Reproduces: stuck-at-0 and stuck-at-1 faults injected at each output
// bit position of the PE accumulators of an (default) 256x256
// systolicSNN, 8 faulty PEs, unmitigated inference, for MNIST / N-MNIST /
// DVS-Gesture. The paper's finding: MSB faults (especially stuck-at-1 in
// the sign bit) collapse accuracy, LSB faults are nearly harmless.
//
// Run it with `sweep_fleet --grids fig5a_bit_position --store <dir>`;
// the figure (mean accuracy over repeats) lands in
// ./fig5a_bit_position.csv.

#include <memory>

#include "bench_common.h"
#include "core/grid_registry.h"
#include "core/mitigation.h"
#include "grids/grids.h"

namespace falvolt::bench::fig5a {

namespace {

const std::vector<fx::StuckType>& types() {
  static const std::vector<fx::StuckType> kTypes = {
      fx::StuckType::kStuckAt0, fx::StuckType::kStuckAt1};
  return kTypes;
}

const char* type_name(fx::StuckType t) {
  return t == fx::StuckType::kStuckAt0 ? "sa0" : "sa1";
}

std::vector<int> bits(int word_bits) {
  std::vector<int> out;
  for (int b = 0; b < word_bits; b += 2) out.push_back(b);
  if (out.back() != word_bits - 1) out.push_back(word_bits - 1);  // the MSB
  return out;
}

std::vector<core::DatasetKind> kinds(const common::CliFlags& cli) {
  return dataset_list(cli, {core::DatasetKind::kMnist,
                            core::DatasetKind::kNMnist,
                            core::DatasetKind::kDvsGesture});
}

int repeats(const common::CliFlags& cli) {
  return cli.get_int("repeats") > 0
             ? static_cast<int>(cli.get_int("repeats"))
             : (cli.get_bool("fast") ? 1 : 2);
}

std::string cell_key(core::DatasetKind kind, fx::StuckType type, int bit,
                     int rep) {
  return std::string(core::dataset_name(kind)) + "/" + type_name(type) +
         "/bit=" + std::to_string(bit) + "/rep=" + std::to_string(rep);
}

}  // namespace

void register_grid() {
  core::GridDef def;
  def.name = "fig5a_bit_position";
  def.datasets = {core::DatasetKind::kMnist, core::DatasetKind::kNMnist,
                  core::DatasetKind::kDvsGesture};
  def.title =
      "Accuracy vs fault bit location (sa0/sa1, unmitigated inference on "
      "the fixed-point systolic engine)";
  def.add_flags = [](common::CliFlags& cli) {
    cli.add_int("faulty-pes", 8, "number of faulty PEs");
    cli.add_int("eval-samples", 96, "test samples per evaluation");
  };
  def.scenarios = [](const common::CliFlags& cli) {
    const systolic::ArrayConfig array = experiment_array(cli);
    const int word = array.format.total_bits();
    const int reps = repeats(cli);
    const int n_faulty = static_cast<int>(cli.get_int("faulty-pes"));
    std::vector<core::Scenario> scenarios;
    for (const auto kind : kinds(cli)) {
      for (const auto type : types()) {
        for (const int bit : bits(word)) {
          for (int rep = 0; rep < reps; ++rep) {
            core::Scenario s;
            s.key = cell_key(kind, type, bit, rep);
            s.dataset = kind;
            s.stuck = type;
            s.bit = bit;
            s.fault_count = n_faulty;
            s.repeat = rep;
            // Seeded per repeat only: every bit position and stuck level
            // is evaluated on the SAME faulty-PE locations, so the x-axis
            // isolates the bit effect (as in the paper's setup).
            s.fault_seed = 1000 + static_cast<std::uint64_t>(rep);
            scenarios.push_back(s);
          }
        }
      }
    }
    return scenarios;
  };
  def.scenario_fn = [](const common::CliFlags& cli,
                       const core::SweepContext& ctx) {
    const systolic::ArrayConfig array = experiment_array(cli);
    const int word = array.format.total_bits();
    const auto eval_sets = std::make_shared<EvalSets>(
        ctx, static_cast<int>(cli.get_int("eval-samples")));
    return [array, word, eval_sets](const core::Scenario& s,
                                    const core::SweepContext& c) {
      snn::Network net = c.clone_network(s.dataset);
      common::Rng rng(s.fault_seed);
      fault::FaultSpec spec;
      spec.bit = s.bit;
      spec.word_bits = word;
      spec.type = s.stuck;
      const fault::FaultMap map = fault::random_fault_map(
          array.rows, array.cols, s.fault_count, spec, rng);
      const double acc = core::evaluate_with_faults(
          net, eval_sets->batch(s.dataset), array, map,
          systolic::SystolicGemmEngine::FaultHandling::kCorrupt);
      core::ScenarioResult out;
      out.metrics = {{"accuracy", acc}};
      return out;
    };
  };
  def.aggregate = [](const common::CliFlags& cli,
                     const core::ResultTable& results) {
    const systolic::ArrayConfig array = experiment_array(cli);
    const std::vector<int> bit_axis = bits(array.format.total_bits());
    const int reps = repeats(cli);
    core::Figure fig;
    fig.csv_header = {"dataset", "type", "bit", "accuracy"};
    std::vector<std::string> header = {"series"};
    for (const int b : bit_axis) header.push_back("bit" + std::to_string(b));
    common::TextTable table(header);
    for (const auto kind : kinds(cli)) {
      for (const auto type : types()) {
        std::vector<double> row;
        for (const int bit : bit_axis) {
          common::RunningStats acc;
          for (int rep = 0; rep < reps; ++rep) {
            acc.add(cell_value(results, cell_key(kind, type, bit, rep)));
          }
          row.push_back(acc.mean());
          fig.csv_rows.push_back({std::string(core::dataset_name(kind)),
                                  type_name(type), std::to_string(bit),
                                  common::CsvWriter::format(acc.mean())});
        }
        table.row_labeled(std::string(type_name(type)) + "-" +
                              core::dataset_name(kind),
                          row, 1);
      }
    }
    logf(fig.report,
         "Accuracy [%%] vs accumulator fault bit (%d faulty PEs, %s "
         "array):\n",
         static_cast<int>(cli.get_int("faulty-pes")),
         array.to_string().c_str());
    fig.report += table.str() +
                  "\nExpected shape (paper): accuracy near baseline at "
                  "LSBs, collapse at MSBs; sa1 worse than sa0.\n";
    return fig;
  };
  core::GridRegistry::instance().add(std::move(def));
}

}  // namespace falvolt::bench::fig5a
