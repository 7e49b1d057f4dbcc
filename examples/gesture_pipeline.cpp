// Neuromorphic gesture pipeline on a damaged edge accelerator.
//
// The battery-driven scenario from the paper's introduction: an event
// camera feeds a gesture classifier running on a systolic SNN
// accelerator that has developed permanent faults in the field. This
// example classifies individual event streams, shows per-class behaviour
// before/after mitigation, and prints the spike activity the accelerator
// would process.
//
// Build & run:  ./build/examples/gesture_pipeline [--fast=false]

#include <cstdio>

#include "common/cli.h"
#include "core/experiment.h"
#include "core/falvolt.h"
#include "data/synthetic_dvs_gesture.h"
#include "fault/fault_generator.h"
#include "snn/trainer.h"
#include "tensor/tensor_ops.h"

using namespace falvolt;

namespace {

// Confusion-style per-class accuracy report.
std::vector<double> per_class_accuracy(snn::Network& net,
                                       const data::Dataset& test) {
  std::vector<int> correct(static_cast<std::size_t>(test.num_classes()), 0);
  std::vector<int> total(static_cast<std::size_t>(test.num_classes()), 0);
  for (int start = 0; start < test.size(); start += 64) {
    const int end = std::min(test.size(), start + 64);
    std::vector<int> idx;
    for (int i = start; i < end; ++i) idx.push_back(i);
    const tensor::Tensor rates = snn::infer_rates(net, test, idx);
    const auto pred = tensor::argmax_rows(rates);
    for (std::size_t i = 0; i < idx.size(); ++i) {
      const int label = test[idx[i]].label;
      ++total[static_cast<std::size_t>(label)];
      if (pred[i] == label) ++correct[static_cast<std::size_t>(label)];
    }
  }
  std::vector<double> acc;
  for (std::size_t c = 0; c < correct.size(); ++c) {
    acc.push_back(total[c] ? 100.0 * correct[c] / total[c] : 0.0);
  }
  return acc;
}

}  // namespace

int main(int argc, char** argv) {
  common::CliFlags cli("gesture_pipeline");
  cli.add_bool("fast", true, "smaller dataset / fewer epochs");
  if (!cli.parse_or_exit(argc, argv)) return 0;

  core::WorkloadOptions opts;
  opts.fast = cli.get_bool("fast");
  core::Workload wl =
      core::prepare_workload(core::DatasetKind::kDvsGesture, opts);
  std::printf("gesture classifier baseline: %.2f%%\n", wl.baseline_accuracy);

  // Event statistics of one stream (what the accelerator actually sees).
  const data::Sample& sample = wl.data.test[0];
  const double events = tensor::sum(sample.frames);
  std::printf("sample 0: class '%s', %d time steps, %.0f events "
              "(%.2f%% pixel activity)\n\n",
              data::dvs_gesture_class_names()[static_cast<std::size_t>(
                                                  sample.label)]
                  .c_str(),
              wl.data.test.time_steps(), events,
              100.0 * events / sample.frames.size());

  // The accelerator develops faults in the field: 20% of a 64x64 array.
  systolic::ArrayConfig array;
  array.rows = array.cols = 64;
  common::Rng rng(99);
  const fault::FaultMap map = fault::fault_map_at_rate(
      array.rows, array.cols, 0.20,
      fault::worst_case_spec(array.format.total_bits()), rng);

  const auto baseline_params = wl.net.snapshot_params();
  const double faulty = core::evaluate_with_faults(
      wl.net, wl.data.test, array, map,
      systolic::SystolicGemmEngine::FaultHandling::kCorrupt);
  std::printf("damaged accelerator (unmitigated): %.2f%%\n", faulty);

  core::MitigationConfig cfg;
  cfg.array = array;
  cfg.retrain_epochs = core::default_retrain_epochs(
      core::DatasetKind::kDvsGesture, opts.fast);
  cfg.eval_each_epoch = false;
  const core::MitigationResult r = core::run_falvolt(
      wl.net, map, wl.data.train, wl.data.test, cfg);
  std::printf("after FalVolt field-recalibration: %.2f%%\n\n",
              r.final_accuracy);

  // Per-gesture accuracy after mitigation.
  const auto mitigated = per_class_accuracy(wl.net, wl.data.test);
  wl.net.restore_params(baseline_params);
  const auto clean = per_class_accuracy(wl.net, wl.data.test);
  std::printf("%-18s %10s %10s\n", "gesture", "baseline", "mitigated");
  for (std::size_t c = 0; c < mitigated.size(); ++c) {
    std::printf("%-18s %9.1f%% %9.1f%%\n",
                data::dvs_gesture_class_names()[c].c_str(), clean[c],
                mitigated[c]);
  }
  return 0;
}
