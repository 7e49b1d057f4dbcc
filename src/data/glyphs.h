#pragma once
// Procedural digit glyphs.
//
// The MNIST / N-MNIST / DVS datasets the paper uses are substituted with
// procedurally generated equivalents, so a study needs no dataset
// download and every split is reproducible from its seed. The base
// ingredient for the two digit-style datasets is a set of ten 8x8 digit
// bitmaps rendered into a target canvas with random shift, thickness,
// and pixel noise — enough intra-class variation that the classification
// task is non-trivial but learnable to ≈99% by the paper's scaled-down
// PLIF networks.

#include <array>
#include <cstdint>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace falvolt::data {

/// One 8x8 1-bit glyph; row `r` bit `7-c` set means pixel (r, c) is on.
using GlyphBitmap = std::array<std::uint8_t, 8>;

/// The ten digit glyphs, indexed by digit value.
const std::array<GlyphBitmap, 10>& digit_glyphs();

/// Options controlling glyph rendering variation.
struct GlyphRenderOptions {
  int canvas = 16;          ///< output is canvas x canvas
  int max_shift = 1;        ///< uniform shift in [-max_shift, max_shift]
  double thicken_prob = 0.35;  ///< chance to dilate the glyph by 1px
  double noise_prob = 0.01;    ///< per-pixel salt noise probability
  double noise_level = 0.5;    ///< intensity of noise pixels
  double intensity_lo = 0.85;  ///< random stroke intensity range
  double intensity_hi = 1.0;
};

/// Render digit `digit` to a [canvas x canvas] tensor in [0, 1].
/// The same rng state renders the same image (fully deterministic).
tensor::Tensor render_glyph(int digit, common::Rng& rng,
                            const GlyphRenderOptions& opts = {});

/// Render without augmentation (centered, clean) — used by tests.
tensor::Tensor render_glyph_clean(int digit, int canvas = 16);

}  // namespace falvolt::data
