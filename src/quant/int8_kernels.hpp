// Per-kernel-set entry points of the int8 convolutions (internal).
//
// int8_kernels.cpp is a kernel source: compiled once per kernel set
// (runtime/kernel_registry.hpp), each copy defining kQuantKernels in its
// set's namespace. int8.cpp validates arguments and dispatches through the
// active set's table.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "quant/int8.hpp"

namespace wino::quant {

/// Folds |v| into a running finite maximum: NaN and +/-Inf are skipped, so
/// one non-finite value cannot turn a scale into Inf (whose inverse, 0,
/// would zero the tensor and dequantize every output as 0 * Inf = NaN).
/// The skipped values still quantize, to 0 and +/-127.
inline float finite_max_abs(float worst, float v) {
  const float m = std::abs(v);
  return m > worst && m <= std::numeric_limits<float>::max() ? m : worst;
}

/// Extents of the padded int8 image and its patch panel (im2col form).
struct PatchGeometry {
  std::size_t channels;  ///< C
  std::size_t plane;     ///< padded H * padded W
  std::size_t wp;        ///< padded W
  std::size_t r;         ///< kernel edge
  std::size_t ow;        ///< output width
};

/// Validated extents of one int8 Winograd walk.
struct WinogradGeometry {
  std::size_t m, n_tile, nsq;  ///< output tile edge, input tile edge, n^2
  std::size_t oh, ow;          ///< output extents
  std::size_t tiles_y, tiles_x;
  std::size_t block;  ///< the scratch's B >= 1
};

struct QuantKernels {
  /// out[i] = quantize_symmetric(in[i], inv_scale) for i < count.
  void (*quantize_span)(const float* in, std::size_t count, float inv_scale,
                        std::int8_t* out);
  /// The K-contiguous patches of output rows [y_begin, y_end) of the
  /// padded int8 `image`, written to `out` (conv2d_im2col_int8_into).
  void (*gather_patches)(const PatchGeometry& g, const std::int8_t* image,
                         std::size_t y_begin, std::size_t y_end,
                         std::int8_t* out);
  /// The int8 Winograd tile walk of conv2d_winograd_int8_into over
  /// arguments it has validated.
  void (*winograd_walk)(const tensor::Tensor4fView& input,
                        const QuantizedWinogradKernels& qk,
                        const winograd::TileTransformer& xf, int pad,
                        bool fuse_relu, const WinogradGeometry& geo,
                        std::span<float> out,
                        const QuantWinogradScratch& scratch);
};

namespace baseline {
extern const QuantKernels kQuantKernels;
}  // namespace baseline
namespace avx2 {
extern const QuantKernels kQuantKernels;
}  // namespace avx2

}  // namespace wino::quant
