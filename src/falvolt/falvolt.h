#pragma once
// Umbrella header: the full public API of the FalVolt library.
//
//   #include "falvolt/falvolt.h"
//
// pulls in every module. Fine-grained headers remain available for
// builds that want tighter include graphs.

// Utilities.
#include "common/cli.h"       // IWYU pragma: export
#include "common/csv.h"       // IWYU pragma: export
#include "common/env.h"       // IWYU pragma: export
#include "common/rng.h"       // IWYU pragma: export
#include "common/stats.h"     // IWYU pragma: export
#include "common/table.h"     // IWYU pragma: export
#include "common/timer.h"     // IWYU pragma: export

// Parallel compute backend (thread pool, blocked GEMM).
#include "compute/gemm_kernels.h"  // IWYU pragma: export
#include "compute/thread_pool.h"   // IWYU pragma: export

// Fixed-point arithmetic and stuck-at faults.
#include "fixed/fixed_format.h"  // IWYU pragma: export
#include "fixed/stuck_bits.h"    // IWYU pragma: export

// Tensors.
#include "tensor/gemm.h"        // IWYU pragma: export
#include "tensor/im2col.h"      // IWYU pragma: export
#include "tensor/tensor.h"      // IWYU pragma: export
#include "tensor/tensor_ops.h"  // IWYU pragma: export

// Datasets.
#include "data/dataset.h"                // IWYU pragma: export
#include "data/glyphs.h"                 // IWYU pragma: export
#include "data/synthetic_dvs_gesture.h"  // IWYU pragma: export
#include "data/synthetic_mnist.h"        // IWYU pragma: export
#include "data/synthetic_nmnist.h"       // IWYU pragma: export

// Spiking neural networks.
#include "snn/batchnorm.h"  // IWYU pragma: export
#include "snn/conv2d.h"     // IWYU pragma: export
#include "snn/dropout.h"    // IWYU pragma: export
#include "snn/flatten.h"    // IWYU pragma: export
#include "snn/layer.h"      // IWYU pragma: export
#include "snn/linear.h"     // IWYU pragma: export
#include "snn/loss.h"       // IWYU pragma: export
#include "snn/model_zoo.h"  // IWYU pragma: export
#include "snn/network.h"    // IWYU pragma: export
#include "snn/optimizer.h"  // IWYU pragma: export
#include "snn/plif.h"       // IWYU pragma: export
#include "snn/pooling.h"    // IWYU pragma: export
#include "snn/surrogate.h"  // IWYU pragma: export
#include "snn/trainer.h"    // IWYU pragma: export

// Systolic-array accelerator model.
#include "systolic/cost_model.h"    // IWYU pragma: export
#include "systolic/cycle_sim.h"     // IWYU pragma: export
#include "systolic/faulty_gemm.h"   // IWYU pragma: export
#include "systolic/mapping.h"       // IWYU pragma: export
#include "systolic/network_cost.h"  // IWYU pragma: export
#include "systolic/pe.h"            // IWYU pragma: export

// Fault machinery.
#include "fault/fault_generator.h"  // IWYU pragma: export
#include "fault/fault_map.h"        // IWYU pragma: export
#include "fault/post_fab_test.h"    // IWYU pragma: export
#include "fault/prune_mask.h"       // IWYU pragma: export

// The paper's contribution.
#include "core/experiment.h"  // IWYU pragma: export
#include "core/falvolt.h"     // IWYU pragma: export
#include "core/fap.h"         // IWYU pragma: export
#include "core/mitigation.h"  // IWYU pragma: export
#include "core/retrain.h"     // IWYU pragma: export
#include "core/sweep.h"       // IWYU pragma: export
