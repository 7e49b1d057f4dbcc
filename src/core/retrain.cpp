#include "core/retrain.h"

#include <cmath>

#include "common/timer.h"
#include "snn/optimizer.h"

namespace falvolt::core {

MitigationResult run_fault_aware_retraining(
    snn::Network& net, const fault::FaultMap& map,
    const data::Dataset& train, const data::Dataset& test,
    const MitigationConfig& cfg, const std::string& method_name) {
  common::Timer timer;
  MitigationResult res;
  res.method = method_name;

  // Algorithm 1 lines 1-2: prune weights mapped to faulty PEs.
  fault::NetworkPruner pruner(net, map);
  pruner.apply(net);
  res.prune_report = pruner.report();
  res.pruned_accuracy = snn::evaluate(net, test);

  // Line 3: initialize the retraining threshold voltage on every hidden
  // spiking layer, and make it trainable for FalVolt only.
  for (snn::Plif* p : net.hidden_spiking_layers()) {
    p->set_vth(cfg.retrain_vth);
    p->set_train_vth(cfg.optimize_vth);
  }

  // Lines 4-13: BPTT retraining; pruned weights re-zeroed every epoch.
  snn::Adam opt(cfg.lr);
  snn::TrainConfig tc;
  tc.epochs = cfg.retrain_epochs;
  tc.batch_size = cfg.batch_size;
  tc.shuffle_seed = cfg.seed;
  tc.eval_each_epoch = cfg.eval_each_epoch;
  tc.post_epoch = [&pruner](snn::Network& n) { pruner.apply(n); };
  const int decay_epoch = static_cast<int>(cfg.lr_decay_fraction *
                                           cfg.retrain_epochs);
  tc.on_epoch = [&opt, &cfg, decay_epoch](const snn::EpochStats& s) {
    if (s.epoch + 1 == decay_epoch && cfg.lr_decay_factor > 1.0) {
      opt.set_lr(cfg.lr / cfg.lr_decay_factor);
    }
  };
  snn::Trainer trainer(net, opt, train, &test, tc);
  res.curve = trainer.run();

  // Line 15: final inference accuracy with the new weights. With
  // per-epoch evaluation the last epoch has measured exactly this: its
  // evaluation ran after the re-pruning, on the same weights.
  res.final_accuracy = cfg.eval_each_epoch && !res.curve.empty()
                           ? res.curve.back().test_accuracy
                           : snn::evaluate(net, test);
  res.best_accuracy = res.final_accuracy;
  for (const snn::EpochStats& s : res.curve) {
    if (!std::isnan(s.test_accuracy) && s.test_accuracy > res.best_accuracy) {
      res.best_accuracy = s.test_accuracy;
    }
  }
  res.vth_per_layer = collect_vth(net);
  net.set_train_vth(false);  // leave the network in inference state
  res.seconds = timer.seconds();
  return res;
}

}  // namespace falvolt::core
