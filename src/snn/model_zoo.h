#pragma once
// The paper's two network architectures, scaled for CPU simulation: 8
// conv channels and a 32-unit FC1 by default (ZooConfig).
//
// Digit classifier (MNIST / N-MNIST): spike-encoder {Conv + PLIF}, then
// 2x {Conv + BN + PLIF + AvgPool}, then 2x {Dropout + FC + PLIF}. Hidden
// spiking layers are PLIF1, PLIF2, PLIF_FC1, PLIF_FC2, matching the
// Conv1/Conv2/FC1/FC2 threshold bars in the paper's Fig. 6a/6b.
//
// Gesture classifier (DVS128-Gesture): same, with the conv block repeated
// five times (Conv1..Conv5 + FC1/FC2, Fig. 6c).

#include "snn/network.h"
#include "snn/surrogate.h"

namespace falvolt::snn {

/// Width / regularization knobs of the zoo models.
struct ZooConfig {
  int channels = 8;        ///< conv width
  int fc_hidden = 32;      ///< FC1 width
  float dropout = 0.2f;
  float initial_tau = 2.0f;
  float initial_vth = 1.0f;
  /// Triangle surrogate (paper Eq. 2). gamma = 2 strengthens the credit
  /// assignment enough for the scaled-down CPU models to reach their
  /// ~99% baselines; the paper leaves gamma unspecified.
  Surrogate surrogate{SurrogateKind::kTriangle, 2.0f};
  std::uint64_t seed = 7;  ///< weight init / dropout seed
};

/// Two-conv-block classifier for 16x16-ish digit inputs. The canvas must
/// be divisible by 4 (two 2x2 pools).
Network make_digit_classifier(const std::string& name, int in_channels,
                              int canvas, int num_classes,
                              const ZooConfig& cfg = {});

/// Five-conv-block classifier for gesture inputs. The canvas must be
/// divisible by 8 (three 2x2 pools; blocks 4-5 keep the spatial size).
Network make_gesture_classifier(const std::string& name, int in_channels,
                                int canvas, int num_classes,
                                const ZooConfig& cfg = {});

}  // namespace falvolt::snn
