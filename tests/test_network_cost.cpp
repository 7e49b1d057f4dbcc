#include "systolic/network_cost.h"

#include <gtest/gtest.h>

#include "data/synthetic_mnist.h"
#include "snn/model_zoo.h"

namespace falvolt::systolic {
namespace {

struct Fixture {
  Fixture() {
    data::SyntheticMnistConfig dc;
    dc.train_size = 10;
    dc.test_size = 10;
    split = data::make_synthetic_mnist(dc);
    net = snn::make_digit_classifier("d", 1, 16, 10);
  }
  data::DatasetSplit split{data::Dataset("a", 1, 1, 1, 1, 1),
                           data::Dataset("b", 1, 1, 1, 1, 1)};
  snn::Network net;
};

TEST(NetworkCost, CoversEveryMatmulLayerInOrder) {
  Fixture f;
  ArrayConfig array;
  array.rows = array.cols = 64;
  const NetworkCostReport r =
      estimate_network_cost(f.net, array, f.split.test);
  ASSERT_EQ(r.layers.size(), 5u);
  EXPECT_EQ(r.layers[0].layer, "SEncConv");
  EXPECT_EQ(r.layers[1].layer, "Conv1");
  EXPECT_EQ(r.layers[4].layer, "FC2");
}

TEST(NetworkCost, GeometryMatchesLayers) {
  Fixture f;
  ArrayConfig array;
  array.rows = array.cols = 64;
  const NetworkCostReport r =
      estimate_network_cost(f.net, array, f.split.test);
  // Conv1: 16x16 output pixels, K = 8*3*3, N = 8 channels.
  EXPECT_EQ(r.layers[1].gemm_m, 256);
  EXPECT_EQ(r.layers[1].gemm_k, 72);
  EXPECT_EQ(r.layers[1].gemm_n, 8);
  // FC2: one row (batch 1), K = 32 hidden, N = 10 classes.
  EXPECT_EQ(r.layers[4].gemm_m, 1);
  EXPECT_EQ(r.layers[4].gemm_k, 32);
  EXPECT_EQ(r.layers[4].gemm_n, 10);
}

TEST(NetworkCost, TotalsAreLayerSums) {
  Fixture f;
  ArrayConfig array;
  array.rows = array.cols = 64;
  const NetworkCostReport r =
      estimate_network_cost(f.net, array, f.split.test);
  std::uint64_t cycles = 0;
  double energy = 0.0;
  for (const auto& l : r.layers) {
    cycles += l.cost.cycles;
    energy += l.cost.energy_nj;
  }
  EXPECT_EQ(r.total_cycles, cycles);
  EXPECT_NEAR(r.total_energy_nj, energy, 1e-9);
  EXPECT_EQ(r.time_steps, f.split.test.time_steps());
  EXPECT_NEAR(r.inference_latency_us(),
              r.total_latency_us * r.time_steps, 1e-9);
}

TEST(NetworkCost, ZeroDensityRequestsMeasurement) {
  Fixture f;
  ArrayConfig array;
  array.rows = array.cols = 64;
  const NetworkCostReport measured =
      estimate_network_cost(f.net, array, f.split.test, /*density=*/0.0);
  for (const auto& l : measured.layers) {
    EXPECT_GE(l.spike_density, 0.0);
    EXPECT_LE(l.spike_density, 1.0);
  }
}

TEST(NetworkCost, LargerArrayReducesCycles) {
  Fixture f;
  ArrayConfig small;
  small.rows = small.cols = 8;
  ArrayConfig big;
  big.rows = big.cols = 128;
  const auto cost_small =
      estimate_network_cost(f.net, small, f.split.test);
  const auto cost_big = estimate_network_cost(f.net, big, f.split.test);
  EXPECT_GT(cost_small.total_cycles, cost_big.total_cycles);
}

TEST(NetworkCost, EmptyDatasetThrows) {
  Fixture f;
  data::Dataset empty("e", 10, 4, 1, 16, 16);
  ArrayConfig array;
  EXPECT_THROW(estimate_network_cost(f.net, array, empty),
               std::invalid_argument);
}

}  // namespace
}  // namespace falvolt::systolic
