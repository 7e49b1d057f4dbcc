#pragma once
// 2x2 average pooling (stride 2). Average pooling preserves firing-rate
// information of spike trains, which is why convolutional SNNs prefer it
// over max pooling. Forward and backward run 8 outputs per vector.

#include "snn/layer.h"

namespace falvolt::snn {

class AvgPool2d final : public Layer {
 public:
  explicit AvgPool2d(std::string name);

  tensor::Tensor forward(const tensor::Tensor& x, int t, Mode mode) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out, int t) override;
  void reset_state() override;


 private:
  tensor::Shape in_shape_;  // remembered for backward
};

}  // namespace falvolt::snn
