#include "snn/layer.h"

#include <memory>

#include "compute/gemm_kernels.h"
#include "tensor/gemm.h"

namespace falvolt::snn {

void GemmEngine::conv(const float* x, int n, const tensor::ConvGeometry& g,
                      const float* w, int cout, const float* bias,
                      float* out, const std::string& layer_tag) {
  const int p = g.out_pixels();
  const int k = g.patch_size();
  const std::size_t rows = static_cast<std::size_t>(n) * p;
  // im2col and run() write every element of their outputs.
  const std::unique_ptr<float[]> cols(new float[rows * k]);
  tensor::im2col(x, n, g, cols.get());
  // [n*p, k] x [k, cout] -> [n*p, cout]
  const std::unique_ptr<float[]> prod(new float[rows * cout]);
  run(cols.get(), w, prod.get(), static_cast<int>(rows), k, cout, layer_tag);
  // Repack pixel-major rows into [N, Cout, OH, OW] and add the bias.
  for (int s = 0; s < n; ++s) {
    for (int pix = 0; pix < p; ++pix) {
      const float* row =
          prod.get() + (static_cast<std::size_t>(s) * p + pix) * cout;
      for (int c = 0; c < cout; ++c) {
        out[(static_cast<std::size_t>(s) * cout + c) * p + pix] =
            row[c] + (bias != nullptr ? bias[c] : 0.0f);
      }
    }
  }
}

void FloatGemmEngine::run(const float* a, const float* w, float* c, int m,
                          int k, int n, const std::string& layer_tag) {
  (void)layer_tag;
  tensor::gemm(a, w, c, m, k, n);
}

void FloatGemmEngine::conv(const float* x, int n,
                           const tensor::ConvGeometry& g, const float* w,
                           int cout, const float* bias, float* out,
                           const std::string& layer_tag) {
  if (g.patch_size() <= compute::kKc && g.stride == 1) {
    tensor::conv_forward(x, n, g, w, cout, bias, out);
  } else {
    GemmEngine::conv(x, n, g, w, cout, bias, out, layer_tag);
  }
}

FloatGemmEngine& FloatGemmEngine::instance() {
  static FloatGemmEngine engine;
  return engine;
}

}  // namespace falvolt::snn
