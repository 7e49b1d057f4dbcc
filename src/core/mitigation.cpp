#include "core/mitigation.h"

namespace falvolt::core {

double evaluate_with_faults(snn::Network& net, const data::Dataset& test,
                            const systolic::ArrayConfig& array,
                            const fault::FaultMap& map,
                            systolic::SystolicGemmEngine::FaultHandling
                                handling) {
  systolic::SystolicGemmEngine engine(array, &map, handling);
  net.set_gemm_engine(&engine);
  const double acc = snn::evaluate(net, test);
  net.set_gemm_engine(nullptr);
  return acc;
}

double evaluate_with_faults(snn::Network& net, const snn::EvalBatch& test,
                            const systolic::ArrayConfig& array,
                            const fault::FaultMap& map,
                            systolic::SystolicGemmEngine::FaultHandling
                                handling) {
  systolic::SystolicGemmEngine engine(array, &map, handling);
  net.set_gemm_engine(&engine);
  const double acc = snn::evaluate(net, test);
  net.set_gemm_engine(nullptr);
  return acc;
}

std::vector<VthEntry> collect_vth(snn::Network& net) {
  std::vector<VthEntry> out;
  for (snn::Plif* p : net.hidden_spiking_layers()) {
    out.push_back(VthEntry{p->name(), p->vth()});
  }
  return out;
}

}  // namespace falvolt::core
