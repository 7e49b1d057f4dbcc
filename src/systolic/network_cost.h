#pragma once
// Whole-network deployment cost report: maps every GEMM-lowered layer of
// a spiking network onto the systolic array's analytical cost model and
// aggregates latency / energy / utilization per inference time step.
//
// Used by the examples to show the hardware economics of the paper's
// arguments (SNN adder-PEs vs ANN MAC-PEs, bypass overhead, and the cost
// of the re-execution alternative FalVolt avoids).

#include <string>
#include <vector>

#include "data/dataset.h"
#include "snn/network.h"
#include "systolic/cost_model.h"

namespace falvolt::systolic {

/// Cost of one layer's GEMM on the array.
struct LayerCostReport {
  std::string layer;
  int gemm_m = 0;  ///< rows fed per time step (pixels or batch)
  int gemm_k = 0;
  int gemm_n = 0;
  double spike_density = 0.0;
  GemmCost cost;
};

/// Aggregate over all layers of one inference time step.
struct NetworkCostReport {
  std::vector<LayerCostReport> layers;
  std::uint64_t total_cycles = 0;
  double total_latency_us = 0.0;
  double total_energy_nj = 0.0;
  /// Latency/energy for a full T-step inference.
  int time_steps = 1;
  double inference_latency_us() const {
    return total_latency_us * time_steps;
  }
  double inference_energy_nj() const { return total_energy_nj * time_steps; }
};

/// Estimate the per-time-step cost of running `net` on `array` for inputs
/// shaped like the dataset's samples. `spike_density` approximates the
/// fraction of active spikes entering each layer (typically 0.02-0.1 for
/// these workloads); pass 0 to use the density measured by the probe
/// forward pass instead.
NetworkCostReport estimate_network_cost(snn::Network& net,
                                        const ArrayConfig& array,
                                        const data::Dataset& dataset,
                                        double spike_density = 0.05,
                                        const CostModelConfig& cfg = {});

}  // namespace falvolt::systolic
