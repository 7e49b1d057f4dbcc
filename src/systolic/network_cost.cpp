#include "systolic/network_cost.h"

#include <map>
#include <stdexcept>

#include "snn/trainer.h"
#include "tensor/gemm.h"

namespace falvolt::systolic {

namespace {

// GemmEngine probe: computes with the float kernel while recording the
// GEMM dimensions and input spike density seen by each layer.
class RecordingEngine final : public snn::GemmEngine {
 public:
  struct Record {
    int m = 0, k = 0, n = 0;
    double nonzero = 0.0;
    double total = 0.0;
    int order = 0;  // first-seen order, to keep network layer order
  };

  void run(const float* a, const float* w, float* c, int m, int k, int n,
           const std::string& tag) override {
    tensor::gemm(a, w, c, m, k, n);
    Record& r = records_[tag];
    if (r.total == 0.0) r.order = next_order_++;
    r.m = m;
    r.k = k;
    r.n = n;
    const std::size_t count = static_cast<std::size_t>(m) * k;
    for (std::size_t i = 0; i < count; ++i) {
      if (a[i] != 0.0f) r.nonzero += 1.0;
    }
    r.total += static_cast<double>(count);
  }

  /// Records in first-seen (network) order.
  std::vector<std::pair<std::string, Record>> ordered() const {
    std::vector<std::pair<std::string, Record>> out(records_.begin(),
                                                    records_.end());
    std::sort(out.begin(), out.end(), [](const auto& x, const auto& y) {
      return x.second.order < y.second.order;
    });
    return out;
  }

 private:
  std::map<std::string, Record> records_;
  int next_order_ = 0;
};

RecordingEngine probe_network(snn::Network& net,
                              const data::Dataset& dataset, int samples) {
  if (dataset.size() == 0) {
    throw std::invalid_argument("probe_network: empty dataset");
  }
  RecordingEngine engine;
  net.set_gemm_engine(&engine);
  std::vector<int> idx;
  for (int i = 0; i < std::min(samples, dataset.size()); ++i) {
    idx.push_back(i);
  }
  snn::infer_rates(net, dataset, idx);
  net.set_gemm_engine(nullptr);
  return engine;
}

}  // namespace

NetworkCostReport estimate_network_cost(snn::Network& net,
                                        const ArrayConfig& array,
                                        const data::Dataset& dataset,
                                        double spike_density,
                                        const CostModelConfig& cfg) {
  const RecordingEngine engine = probe_network(net, dataset, /*samples=*/1);
  NetworkCostReport report;
  report.time_steps = dataset.time_steps();
  for (const auto& [tag, r] : engine.ordered()) {
    LayerCostReport lr;
    lr.layer = tag;
    // The probe ran one sample per step; per-step GEMM rows = r.m.
    lr.gemm_m = r.m;
    lr.gemm_k = r.k;
    lr.gemm_n = r.n;
    lr.spike_density =
        spike_density > 0.0 ? spike_density
                            : (r.total > 0.0 ? r.nonzero / r.total : 0.0);
    lr.cost = estimate_gemm(array, r.m, r.k, r.n, lr.spike_density, cfg);
    report.total_cycles += lr.cost.cycles;
    report.total_latency_us += lr.cost.latency_us;
    report.total_energy_nj += lr.cost.energy_nj;
    report.layers.push_back(std::move(lr));
  }
  return report;
}

}  // namespace falvolt::systolic
