#pragma once
// MNIST-like static digit dataset, generated from data/glyphs.h in
// place of the real MNIST. 10 classes, single channel, canvas default
// 16x16; the same image is repeated for every time step and the
// network's spike-encoder conv layer converts it to spikes (direct
// coding, as in the paper).

#include "common/rng.h"
#include "data/dataset.h"
#include "data/glyphs.h"

namespace falvolt::data {

/// Generation parameters for the MNIST-like task.
struct SyntheticMnistConfig {
  int train_size = 512;
  int test_size = 256;
  int time_steps = 4;
  int canvas = 16;
  GlyphRenderOptions render;  ///< augmentation knobs
  std::uint64_t seed = 42;
};

/// Build a balanced train/test split (classes round-robin).
DatasetSplit make_synthetic_mnist(const SyntheticMnistConfig& cfg = {});

}  // namespace falvolt::data
