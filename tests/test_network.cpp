#include "snn/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "fault/fault_generator.h"
#include "snn/conv2d.h"
#include "snn/flatten.h"
#include "snn/linear.h"
#include "snn/model_zoo.h"
#include "snn/optimizer.h"
#include "snn/plif.h"
#include "systolic/faulty_gemm.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace falvolt::snn {
namespace {

Network tiny_net(std::uint64_t seed = 1) {
  common::Rng rng(seed);
  Network net("tiny");
  net.emplace<Conv2d>("SEncConv", 1, 2, 3, 1, rng);
  net.emplace<Plif>("SEncPLIF");
  net.emplace<Conv2d>("Conv1", 2, 2, 3, 1, rng);
  net.emplace<Plif>("PLIF1");
  net.emplace<Flatten>("Flatten");
  net.emplace<Linear>("FC1", 2 * 4 * 4, 3, rng);
  net.emplace<Plif>("PLIF_FC1");
  return net;
}

TEST(Network, ForwardProducesClassOutputs) {
  Network net = tiny_net();
  net.reset_state();
  common::Rng rng(2);
  tensor::Tensor x = falvolt::testutil::random_tensor({2, 1, 4, 4}, rng,
                                                      0.0, 1.0);
  const tensor::Tensor y = net.forward(x, 0, Mode::kEval);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 3}));
}

TEST(Network, ParamsCollectsAllLayers) {
  Network net = tiny_net();
  // SEncConv(w, b) + SEncPLIF(vth, w_tau) + Conv1(w, b) + PLIF1(2) +
  // FC1(w, b) + PLIF_FC1(2) = 12 params.
  EXPECT_EQ(net.params().size(), 12u);
}

TEST(Network, ZeroGradClearsAll) {
  Network net = tiny_net();
  for (Param* p : net.params()) p->grad.fill(3.0f);
  net.zero_grad();
  for (Param* p : net.params()) {
    for (std::size_t i = 0; i < p->grad.size(); ++i) {
      ASSERT_EQ(p->grad[i], 0.0f);
    }
  }
}

TEST(Network, SpikingLayerDiscovery) {
  Network net = tiny_net();
  EXPECT_EQ(net.spiking_layers().size(), 3u);
  // The encoder PLIF must be excluded from the hidden set (Fig. 6 reports
  // only hidden conv/FC thresholds).
  const auto hidden = net.hidden_spiking_layers();
  ASSERT_EQ(hidden.size(), 2u);
  EXPECT_EQ(hidden[0]->name(), "PLIF1");
  EXPECT_EQ(hidden[1]->name(), "PLIF_FC1");
}

TEST(Network, MatmulLayerDiscovery) {
  Network net = tiny_net();
  const auto mm = net.matmul_layers();
  ASSERT_EQ(mm.size(), 3u);
  EXPECT_EQ(mm[0]->matmul_name(), "SEncConv");
  EXPECT_EQ(mm[2]->matmul_name(), "FC1");
}

TEST(Network, SetTrainVthOnlyTouchesHiddenLayers) {
  Network net = tiny_net();
  net.set_train_vth(true);
  for (Plif* p : net.hidden_spiking_layers()) {
    EXPECT_TRUE(p->train_vth());
  }
  // Encoder layer stays frozen.
  EXPECT_FALSE(net.spiking_layers()[0]->train_vth());
  net.set_train_vth(false);
  for (Plif* p : net.spiking_layers()) EXPECT_FALSE(p->train_vth());
}

TEST(Network, SnapshotRestoreRoundTrip) {
  Network net = tiny_net();
  const auto snap = net.snapshot_params();
  const auto params = net.params();
  params[0]->value.fill(9.0f);
  net.restore_params(snap);
  EXPECT_EQ(tensor::max_abs_diff(params[0]->value, snap[0]), 0.0);
}

TEST(Network, RestoreRejectsWrongInventory) {
  Network net = tiny_net();
  auto snap = net.snapshot_params();
  snap.pop_back();
  EXPECT_THROW(net.restore_params(snap), std::invalid_argument);
}

TEST(Network, DeterministicGivenSeedAndInput) {
  Network a = tiny_net(5);
  Network b = tiny_net(5);
  common::Rng rng(3);
  tensor::Tensor x = falvolt::testutil::random_tensor({1, 1, 4, 4}, rng,
                                                      0.0, 1.0);
  a.reset_state();
  b.reset_state();
  const tensor::Tensor ya = a.forward(x, 0, Mode::kEval);
  const tensor::Tensor yb = b.forward(x, 0, Mode::kEval);
  EXPECT_EQ(tensor::max_abs_diff(ya, yb), 0.0);
}

TEST(Network, NumTrainableScalarsExcludesFrozen) {
  Network net = tiny_net();
  const std::size_t all = net.num_trainable_scalars();
  net.set_train_vth(true);
  // vth params were already counted? They are Params with trainable flag;
  // enabling training on 2 hidden layers adds 2 scalars.
  EXPECT_EQ(net.num_trainable_scalars(), all + 2);
}

TEST(ModelZoo, DigitClassifierShapes) {
  Network net = make_digit_classifier("digit", 1, 16, 10);
  net.reset_state();
  tensor::Tensor x({2, 1, 16, 16}, 0.5f);
  const tensor::Tensor y = net.forward(x, 0, Mode::kEval);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 10}));
  // Fig. 6a layout: exactly 4 hidden spiking layers Conv1/Conv2/FC1/FC2.
  const auto hidden = net.hidden_spiking_layers();
  ASSERT_EQ(hidden.size(), 4u);
  EXPECT_EQ(hidden[0]->name(), "PLIF1");
  EXPECT_EQ(hidden[3]->name(), "PLIF_FC2");
}

TEST(ModelZoo, GestureClassifierShapes) {
  Network net = make_gesture_classifier("gesture", 2, 24, 11);
  net.reset_state();
  tensor::Tensor x({1, 2, 24, 24}, 0.0f);
  const tensor::Tensor y = net.forward(x, 0, Mode::kEval);
  EXPECT_EQ(y.shape(), (tensor::Shape{1, 11}));
  // Fig. 6c layout: Conv1..Conv5 + FC1 + FC2 -> 7 hidden spiking layers.
  EXPECT_EQ(net.hidden_spiking_layers().size(), 7u);
}

// The two zoo models at test size.
struct ZooModel {
  std::string name;
  int channels;
  int canvas;
  int classes;
};
const ZooModel kZooModels[] = {{"digit", 1, 16, 10}, {"gesture", 2, 24, 11}};

// A zoo model set up as FalVolt retrains it, V_th trained. Low thresholds
// keep every layer firing, so gradients reach the first layer within a
// few steps of an untrained network.
Network retrain_ready(const ZooModel& m) {
  Network net =
      m.name == "digit"
          ? make_digit_classifier(m.name, m.channels, m.canvas, m.classes)
          : make_gesture_classifier(m.name, m.channels, m.canvas, m.classes);
  net.set_train_vth(true);
  for (Plif* p : net.spiking_layers()) p->set_vth(0.2f);
  net.reset_state();
  net.zero_grad();
  return net;
}

// Network::backward skips the first layer's input gradient, which no
// caller reads (Layer::backward_params). Every parameter gradient must
// still be the one that running each layer's backward in turn, the first
// layer's included, accumulates, bit for bit. Both zoo models, T steps of
// train-mode forwards on twin networks, V_th training on as in FalVolt
// retraining.
TEST(ModelZoo, BackwardSkipsOnlyTheInputGradient) {
  constexpr int kSteps = 3;
  for (const ZooModel& m : kZooModels) {
    SCOPED_TRACE(m.name);
    Network whole = retrain_ready(m);
    Network layered = retrain_ready(m);
    common::Rng rng(7);
    std::vector<tensor::Tensor> outs;
    for (int t = 0; t < kSteps; ++t) {
      const tensor::Tensor x = falvolt::testutil::random_tensor(
          {4, m.channels, m.canvas, m.canvas}, rng, 0.0, 1.0);
      outs.push_back(whole.forward(x, t, Mode::kTrain));
      layered.forward(x, t, Mode::kTrain);
    }
    for (int t = kSteps - 1; t >= 0; --t) {
      const tensor::Tensor g = falvolt::testutil::random_tensor(
          outs[static_cast<std::size_t>(t)].shape(), rng, -0.5, 0.5);
      whole.backward(g, t);
      tensor::Tensor cur = g;
      for (int i = layered.num_layers() - 1; i >= 0; --i) {
        cur = layered.layer(i).backward(cur, t);
      }
    }
    const auto want = layered.params();
    const auto got = whole.params();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i]->grad.shape(), want[i]->grad.shape());
      EXPECT_EQ(std::memcmp(got[i]->grad.data(), want[i]->grad.data(),
                            sizeof(float) * got[i]->grad.size()),
                0)
          << got[i]->name << " gradient differs";
    }
    // Every layer's gradients received terms, the first layer's too.
    for (const Param* p : got) {
      if (p->trainable) {
        EXPECT_GT(tensor::count_nonzero(p->grad), 0u) << p->name;
      }
    }
  }
}

// Everything one training step of `m` produces, in order: the T = 3
// train-mode outputs, every parameter's gradient after the backward
// passes (the first layer through backward_params, as Network::backward
// runs it), every parameter's value after one Adam step, and the T eval
// outputs through a faulty systolic engine. The layers run one call at a
// time, each after `before_call()`. `sizes`, when not null, receives the
// element count of every layer output and input gradient, and of each
// conv's zero-bordered weight-gradient batch (pad = kernel / 2 in the
// zoo).
std::vector<float> training_step_image(const ZooModel& m,
                                       const std::function<void()>& before_call,
                                       std::set<std::size_t>* sizes) {
  constexpr int kSteps = 3;
  constexpr int kBatch = 16;
  Network net = retrain_ready(m);
  common::Rng rng(11);
  std::vector<tensor::Tensor> xs;
  for (int t = 0; t < kSteps; ++t) {
    xs.push_back(falvolt::testutil::random_tensor(
        {kBatch, m.channels, m.canvas, m.canvas}, rng, 0.0, 1.0));
  }
  std::vector<float> image;
  const auto keep = [&](const tensor::Tensor& t) {
    image.insert(image.end(), t.begin(), t.end());
  };
  const auto record = [&](const tensor::Tensor& t) {
    if (sizes != nullptr) sizes->insert(t.size());
  };
  const auto forward = [&](int t, Mode mode) {
    tensor::Tensor cur = xs[static_cast<std::size_t>(t)];
    for (int i = 0; i < net.num_layers(); ++i) {
      const auto* conv = dynamic_cast<const Conv2d*>(&net.layer(i));
      if (conv != nullptr && sizes != nullptr) {
        const int edge = conv->kernel() - 1;
        sizes->insert(static_cast<std::size_t>(cur.dim(0)) *
                      conv->in_channels() * (cur.dim(2) + edge) *
                      (cur.dim(3) + edge));
      }
      before_call();
      cur = net.layer(i).forward(cur, t, mode);
      record(cur);
    }
    return cur;
  };

  std::vector<tensor::Tensor> outs;
  for (int t = 0; t < kSteps; ++t) {
    outs.push_back(forward(t, Mode::kTrain));
    keep(outs.back());
  }
  for (int t = kSteps - 1; t >= 0; --t) {
    tensor::Tensor cur = falvolt::testutil::random_tensor(
        outs[static_cast<std::size_t>(t)].shape(), rng, -0.5, 0.5);
    for (int i = net.num_layers() - 1; i > 0; --i) {
      before_call();
      cur = net.layer(i).backward(cur, t);
      record(cur);
    }
    before_call();
    net.layer(0).backward_params(cur, t);
  }
  for (const Param* p : net.params()) keep(p->grad);
  Adam adam(1e-2);
  adam.step(net.params());
  for (const Param* p : net.params()) keep(p->value);

  common::Rng fault_rng(5);
  const fault::FaultMap map =
      fault::fault_map_at_rate(64, 64, 0.1, fault::FaultSpec{}, fault_rng);
  systolic::ArrayConfig cfg;
  cfg.rows = 64;
  cfg.cols = 64;
  systolic::SystolicGemmEngine engine(cfg, &map);
  net.set_gemm_engine(&engine);
  net.reset_state();
  for (int t = 0; t < kSteps; ++t) keep(forward(t, Mode::kEval));
  net.set_gemm_engine(nullptr);
  return image;
}

// Frees two NaN-filled blocks of each size, so the next allocations of
// those sizes on this thread get NaN: from the tensor cache, most recent
// first, or below tensor::kRecycleMinBytes mostly from the heap's own
// free lists.
void flood_with_nan(const std::set<std::size_t>& sizes) {
  std::vector<tensor::Tensor> blocks;
  for (const std::size_t n : sizes) {
    for (int copy = 0; copy < 2; ++copy) {
      blocks.emplace_back(tensor::Shape{static_cast<int>(n)},
                          std::numeric_limits<float>::quiet_NaN());
    }
  }
}

// Layers write their outputs and input gradients into uninitialized
// storage (tensor::Tensor::uninitialized), which may be a recycled block
// holding an earlier tensor's values. A training step and a faulty eval
// must give the same bytes when each layer call finds NaN in every block
// it could get: a layer that leaves an element unwritten fails here.
TEST(ModelZoo, TrainingStepWritesEveryElementItReads) {
  for (const ZooModel& m : kZooModels) {
    SCOPED_TRACE(m.name);
    std::set<std::size_t> sizes;
    const std::vector<float> fresh = training_step_image(m, [] {}, &sizes);
    ASSERT_EQ(std::count_if(fresh.begin(), fresh.end(),
                            [](float v) { return std::isnan(v); }),
              0);
    const std::vector<float> flooded =
        training_step_image(m, [&] { flood_with_nan(sizes); }, nullptr);
    ASSERT_EQ(flooded.size(), fresh.size());
    EXPECT_EQ(std::memcmp(flooded.data(), fresh.data(),
                          sizeof(float) * fresh.size()),
              0);
  }
}

TEST(ModelZoo, CanvasValidation) {
  EXPECT_THROW(make_digit_classifier("d", 1, 18, 10), std::invalid_argument);
  EXPECT_THROW(make_gesture_classifier("g", 2, 20, 11),
               std::invalid_argument);
}

}  // namespace
}  // namespace falvolt::snn
