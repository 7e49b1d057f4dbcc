#include "snn/pooling.h"

#include <stdexcept>

#include "compute/simd.h"

namespace falvolt::snn {

namespace {

using compute::F32x8;

// 8 outputs per vector with the arithmetic of a plain window loop: an
// output is ((((0 + a) + b) + c) + d) * 0.25f over its window in
// row-major order, and each input gradient is 0 + g * 0.25f, an add
// into a zeroed gradient (madd pins its contraction).

// 8 outputs of a window row pair: t0:t1 the 16 floats of the top row,
// b0:b1 those of the bottom row.
F32x8 pool2_x8(F32x8 t0, F32x8 t1, F32x8 b0, F32x8 b1) {
  F32x8 a, b, c, d;
  compute::deinterleave_f32x8(t0, t1, a, b);
  compute::deinterleave_f32x8(b0, b1, c, d);
  const F32x8 sum = compute::add_f32x8(
      compute::add_f32x8(
          compute::add_f32x8(
              compute::add_f32x8(compute::splat_f32x8(0.0f), a), b),
          c),
      d);
  return compute::mul_f32x8(sum, compute::splat_f32x8(0.25f));
}

F32x8 unpool2_x8(const float* g) {
  return compute::madd_f32x8(compute::load_f32x8(g),
                             compute::splat_f32x8(0.25f),
                             compute::splat_f32x8(0.0f));
}

// One (h, w) plane to its (h / 2, w / 2) averages.
void pool2_plane(const float* in, int h, int w, float* out) {
  const int oh = h / 2;
  const int ow = w / 2;
  const std::size_t w2 = static_cast<std::size_t>(w);
  int oy = 0;
  if (ow == 4) {
    // Output rows oy and oy + 1 are 8 adjacent outputs: input rows 2 oy
    // and 2 oy + 2 give their windows' top rows, the next ones their
    // bottom rows.
    for (; oy + 2 <= oh; oy += 2) {
      const float* r = in + 2 * oy * w2;
      compute::store_f32x8(
          out + oy * ow,
          pool2_x8(compute::load_f32x8(r), compute::load_f32x8(r + 2 * w2),
                   compute::load_f32x8(r + w2),
                   compute::load_f32x8(r + 3 * w2)));
    }
  }
  for (; oy < oh; ++oy) {
    const float* r0 = in + 2 * oy * w2;
    const float* r1 = r0 + w2;
    float* o = out + static_cast<std::size_t>(oy) * ow;
    int ox = 0;
    for (; ox + 8 <= ow; ox += 8) {
      compute::store_f32x8(
          o + ox, pool2_x8(compute::load_f32x8(r0 + 2 * ox),
                           compute::load_f32x8(r0 + 2 * ox + 8),
                           compute::load_f32x8(r1 + 2 * ox),
                           compute::load_f32x8(r1 + 2 * ox + 8)));
    }
    for (; ox < ow; ++ox) {
      o[ox] = ((((0.0f + r0[2 * ox]) + r0[2 * ox + 1]) + r1[2 * ox]) +
               r1[2 * ox + 1]) *
              0.25f;
    }
  }
}

// One (h / 2, w / 2) output gradient plane to its (h, w) input gradient.
void unpool2_plane(const float* g, int h, int w, float* gi) {
  const int oh = h / 2;
  const int ow = w / 2;
  const std::size_t w2 = static_cast<std::size_t>(w);
  F32x8 lo, hi;
  int oy = 0;
  if (ow == 4) {
    for (; oy + 2 <= oh; oy += 2) {
      compute::duplicate_f32x8(unpool2_x8(g + oy * ow), lo, hi);
      float* r = gi + 2 * oy * w2;
      compute::store_f32x8(r, lo);
      compute::store_f32x8(r + w2, lo);
      compute::store_f32x8(r + 2 * w2, hi);
      compute::store_f32x8(r + 3 * w2, hi);
    }
  }
  for (; oy < oh; ++oy) {
    const float* grow = g + static_cast<std::size_t>(oy) * ow;
    float* r0 = gi + 2 * oy * w2;
    float* r1 = r0 + w2;
    int ox = 0;
    for (; ox + 8 <= ow; ox += 8) {
      compute::duplicate_f32x8(unpool2_x8(grow + ox), lo, hi);
      compute::store_f32x8(r0 + 2 * ox, lo);
      compute::store_f32x8(r0 + 2 * ox + 8, hi);
      compute::store_f32x8(r1 + 2 * ox, lo);
      compute::store_f32x8(r1 + 2 * ox + 8, hi);
    }
    for (; ox < ow; ++ox) {
      const float v = compute::madd(grow[ox], 0.25f, 0.0f);
      r0[2 * ox] = r0[2 * ox + 1] = r1[2 * ox] = r1[2 * ox + 1] = v;
    }
  }
}

}  // namespace

AvgPool2d::AvgPool2d(std::string name) : Layer(std::move(name)) {}

void AvgPool2d::reset_state() { in_shape_.clear(); }

tensor::Tensor AvgPool2d::forward(const tensor::Tensor& x, int t, Mode mode) {
  (void)t;
  (void)mode;
  if (x.rank() != 4) {
    throw std::invalid_argument("AvgPool2d: expected [N, C, H, W]");
  }
  const int n = x.dim(0);
  const int c = x.dim(1);
  const int h = x.dim(2);
  const int w = x.dim(3);
  if (h % 2 != 0 || w % 2 != 0) {
    throw std::invalid_argument("AvgPool2d: H and W must be even");
  }
  in_shape_ = x.shape();
  const int oh = h / 2;
  const int ow = w / 2;
  tensor::Tensor out = tensor::Tensor::uninitialized({n, c, oh, ow});
  for (std::size_t plane = 0; plane < static_cast<std::size_t>(n) * c;
       ++plane) {
    pool2_plane(x.data() + plane * h * w, h, w, out.data() + plane * oh * ow);
  }
  return out;
}

tensor::Tensor AvgPool2d::backward(const tensor::Tensor& grad_out, int t) {
  (void)t;
  if (in_shape_.empty()) {
    throw std::logic_error("AvgPool2d::backward before forward");
  }
  const int n = in_shape_[0];
  const int c = in_shape_[1];
  const int h = in_shape_[2];
  const int w = in_shape_[3];
  const int oh = h / 2;
  const int ow = w / 2;
  tensor::Tensor grad_in = tensor::Tensor::uninitialized(in_shape_);
  for (std::size_t plane = 0; plane < static_cast<std::size_t>(n) * c;
       ++plane) {
    unpool2_plane(grad_out.data() + plane * oh * ow, h, w,
                  grad_in.data() + plane * h * w);
  }
  return grad_in;
}

}  // namespace falvolt::snn
