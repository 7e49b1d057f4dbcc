#include "core/retrain.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/fap.h"
#include "data/synthetic_mnist.h"
#include "fault/fault_generator.h"
#include "snn/model_zoo.h"
#include "snn/optimizer.h"
#include "snn/trainer.h"

namespace falvolt::core {
namespace {

snn::ZooConfig tiny_zoo() {
  snn::ZooConfig z;
  z.channels = 8;
  z.fc_hidden = 32;
  return z;
}

struct Fixture {
  Fixture() {
    data::SyntheticMnistConfig dc;
    dc.train_size = 160;
    dc.test_size = 80;
    dc.time_steps = 4;
    split = data::make_synthetic_mnist(dc);
    net = snn::make_digit_classifier("d", 1, 16, 10, tiny_zoo());
    snn::Adam opt(2e-2);
    snn::TrainConfig tc;
    tc.epochs = 12;
    tc.batch_size = 16;
    tc.eval_each_epoch = false;
    snn::Trainer trainer(net, opt, split.train, &split.test, tc);
    trainer.run();
    snapshot = net.snapshot_params();
    baseline = snn::evaluate(net, split.test);
  }
  snn::Network fresh_copy() {
    snn::Network n = snn::make_digit_classifier("d", 1, 16, 10, tiny_zoo());
    n.restore_params(snapshot);
    return n;
  }
  data::DatasetSplit split{data::Dataset("a", 1, 1, 1, 1, 1),
                           data::Dataset("b", 1, 1, 1, 1, 1)};
  snn::Network net;
  std::vector<tensor::Tensor> snapshot;
  double baseline = 0.0;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

MitigationConfig small_cfg(bool optimize_vth) {
  MitigationConfig cfg;
  cfg.array.rows = cfg.array.cols = 16;
  cfg.retrain_epochs = 4;
  cfg.batch_size = 16;
  cfg.optimize_vth = optimize_vth;
  return cfg;
}

TEST(Retrain, ImprovesOverFap) {
  Fixture& f = fixture();
  common::Rng rng(1);
  const fault::FaultMap map = fault::fault_map_at_rate(
      16, 16, 0.3, fault::worst_case_spec(16), rng);

  snn::Network fap_net = f.fresh_copy();
  const MitigationResult fap = run_fap(fap_net, map, f.split.test);

  snn::Network re_net = f.fresh_copy();
  const MitigationResult re = run_fault_aware_retraining(
      re_net, map, f.split.train, f.split.test, small_cfg(false), "FaPIT");
  EXPECT_GE(re.final_accuracy, fap.final_accuracy);
  EXPECT_EQ(re.curve.size(), 4u);
  // Retraining starts from the pruned state.
  EXPECT_NEAR(re.pruned_accuracy, fap.final_accuracy, 1e-9);
}

TEST(Retrain, PrunedWeightsStayZeroAfterRetraining) {
  Fixture& f = fixture();
  common::Rng rng(2);
  const fault::FaultMap map = fault::fault_map_at_rate(
      16, 16, 0.3, fault::worst_case_spec(16), rng);
  snn::Network net = f.fresh_copy();
  run_fault_aware_retraining(net, map, f.split.train, f.split.test,
                             small_cfg(true), "FalVolt");
  fault::NetworkPruner pruner(net, map);
  EXPECT_TRUE(pruner.is_pruned(net));
}

TEST(Retrain, VthMovesOnlyWhenOptimized) {
  Fixture& f = fixture();
  common::Rng rng(3);
  const fault::FaultMap map = fault::fault_map_at_rate(
      16, 16, 0.3, fault::worst_case_spec(16), rng);

  snn::Network frozen = f.fresh_copy();
  const MitigationResult fapit = run_fault_aware_retraining(
      frozen, map, f.split.train, f.split.test, small_cfg(false), "FaPIT");
  for (const auto& v : fapit.vth_per_layer) {
    EXPECT_FLOAT_EQ(v.vth, 1.0f);  // frozen at the configured value
  }

  snn::Network learned = f.fresh_copy();
  const MitigationResult falvolt = run_fault_aware_retraining(
      learned, map, f.split.train, f.split.test, small_cfg(true), "FalVolt");
  bool any_moved = false;
  for (const auto& v : falvolt.vth_per_layer) {
    if (std::abs(v.vth - 1.0f) > 1e-4f) any_moved = true;
  }
  EXPECT_TRUE(any_moved);
}

TEST(Retrain, RetrainVthInitializesAllHiddenLayers) {
  Fixture& f = fixture();
  common::Rng rng(4);
  const fault::FaultMap map = fault::fault_map_at_rate(
      16, 16, 0.1, fault::worst_case_spec(16), rng);
  snn::Network net = f.fresh_copy();
  MitigationConfig cfg = small_cfg(false);
  cfg.retrain_epochs = 0;  // only the initialization runs
  cfg.retrain_vth = 0.6f;
  const MitigationResult r = run_fault_aware_retraining(
      net, map, f.split.train, f.split.test, cfg, "init-check");
  for (const auto& v : r.vth_per_layer) {
    EXPECT_FLOAT_EQ(v.vth, 0.6f);
  }
}

TEST(Retrain, ZeroEpochsEqualsFap) {
  // The paper: "setting the re-training epochs to zero makes FalVolt
  // equivalent to simple fault-aware pruning".
  Fixture& f = fixture();
  common::Rng rng(5);
  const fault::FaultMap map = fault::fault_map_at_rate(
      16, 16, 0.3, fault::worst_case_spec(16), rng);
  snn::Network fap_net = f.fresh_copy();
  const MitigationResult fap = run_fap(fap_net, map, f.split.test);
  snn::Network re_net = f.fresh_copy();
  MitigationConfig cfg = small_cfg(true);
  cfg.retrain_epochs = 0;
  cfg.retrain_vth = 1.0f;  // keep inference-equivalent thresholds
  const MitigationResult re = run_fault_aware_retraining(
      re_net, map, f.split.train, f.split.test, cfg, "FalVolt-0");
  EXPECT_DOUBLE_EQ(re.final_accuracy, fap.final_accuracy);
}

TEST(Retrain, FinalAccuracyIsTheRetrainedNetworksAccuracy) {
  // With per-epoch evaluation the last epoch's test accuracy is reused
  // as the final one; either way it is what a fresh evaluation of the
  // retrained network gives.
  Fixture& f = fixture();
  for (const bool each_epoch : {true, false}) {
    SCOPED_TRACE(each_epoch ? "per-epoch evaluation" : "final only");
    common::Rng rng(7);
    const fault::FaultMap map = fault::fault_map_at_rate(
        16, 16, 0.3, fault::worst_case_spec(16), rng);
    snn::Network net = f.fresh_copy();
    MitigationConfig cfg = small_cfg(true);
    cfg.retrain_epochs = 2;
    cfg.eval_each_epoch = each_epoch;
    const MitigationResult r = run_fault_aware_retraining(
        net, map, f.split.train, f.split.test, cfg, "FalVolt");
    ASSERT_EQ(r.curve.size(), 2u);
    EXPECT_EQ(std::isnan(r.curve.back().test_accuracy), !each_epoch);
    EXPECT_EQ(r.final_accuracy, snn::evaluate(net, f.split.test));
  }
}

TEST(Retrain, NetworkLeftInInferenceState) {
  Fixture& f = fixture();
  common::Rng rng(6);
  const fault::FaultMap map = fault::fault_map_at_rate(
      16, 16, 0.1, fault::worst_case_spec(16), rng);
  snn::Network net = f.fresh_copy();
  run_fault_aware_retraining(net, map, f.split.train, f.split.test,
                             small_cfg(true), "FalVolt");
  for (snn::Plif* p : net.spiking_layers()) {
    EXPECT_FALSE(p->train_vth());
  }
}

}  // namespace
}  // namespace falvolt::core
