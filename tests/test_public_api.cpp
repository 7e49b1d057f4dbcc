// Compiles the umbrella header and exercises a minimal end-to-end flow
// through the public API only — the "does the library actually compose"
// test a downstream user cares about.

#include "falvolt/falvolt.h"

#include <gtest/gtest.h>

namespace {

using namespace falvolt;

TEST(PublicApi, UmbrellaHeaderEndToEnd) {
  // Dataset.
  data::SyntheticMnistConfig dc;
  dc.train_size = 40;
  dc.test_size = 20;
  dc.time_steps = 3;
  const data::DatasetSplit split = data::make_synthetic_mnist(dc);

  // Model + short training.
  snn::ZooConfig zc;
  zc.channels = 4;
  zc.fc_hidden = 16;
  snn::Network net = snn::make_digit_classifier("api", 1, 16, 10, zc);
  snn::Adam opt(2e-2);
  snn::TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 10;
  tc.eval_each_epoch = false;
  snn::Trainer trainer(net, opt, split.train, &split.test, tc);
  const auto stats = trainer.run();
  EXPECT_EQ(stats.size(), 2u);

  // Fault injection + post-fab test round trip.
  systolic::ArrayConfig array;
  array.rows = array.cols = 16;
  common::Rng rng(3);
  fault::FaultMap defects = fault::random_fault_map(
      16, 16, 10, fault::worst_case_spec(array.format.total_bits()), rng);
  const fault::FabricatedChip chip(std::move(defects), array.format);
  const fault::TestOutcome outcome = fault::run_post_fab_test(chip);
  EXPECT_EQ(outcome.recovered.num_faulty_pes(), 10);

  // Unmitigated vs mitigated accuracy on the recovered map.
  const double faulty = core::evaluate_with_faults(
      net, split.test, array, outcome.recovered,
      systolic::SystolicGemmEngine::FaultHandling::kCorrupt);
  core::MitigationConfig cfg;
  cfg.array = array;
  cfg.retrain_epochs = 1;
  cfg.eval_each_epoch = false;
  const core::MitigationResult r =
      core::run_falvolt(net, outcome.recovered, split.train, split.test, cfg);
  EXPECT_GE(r.final_accuracy, 0.0);
  EXPECT_LE(faulty, 100.0);
  EXPECT_EQ(r.method, "FalVolt");

  // Cost model.
  const systolic::AreaReport area = systolic::estimate_area(array);
  EXPECT_GT(area.array_area_mm2, 0.0);
  const systolic::NetworkCostReport cost =
      systolic::estimate_network_cost(net, array, split.test);
  EXPECT_FALSE(cost.layers.empty());
}

TEST(PublicApi, CycleSimulatorAccessibleThroughUmbrella) {
  systolic::ArrayConfig cfg;
  cfg.rows = cfg.cols = 4;
  systolic::SystolicArraySim sim(cfg, nullptr);
  tensor::Tensor a({2, 4}, {1, 0, 1, 0, 0, 1, 0, 1});
  tensor::Tensor w({4, 2}, 0.5f);
  systolic::CycleStats stats;
  const tensor::Tensor c = sim.matmul(a, w, &stats);
  EXPECT_EQ(c.shape(), (tensor::Shape{2, 2}));
  EXPECT_GT(stats.cycles, 0u);
}

}  // namespace
