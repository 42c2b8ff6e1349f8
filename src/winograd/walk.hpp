// Internals of the fp32 Winograd tile walk shared by kernels.cpp (argument
// validation, geometry, threading) and its kernel sources: walk_kernels.cpp
// (the walk) and tile_transforms.cpp (the walk's data and inverse
// transforms), each compiled once per kernel set
// (runtime/kernel_registry.hpp) and exporting one table per set.
#pragma once

#include <cstddef>

#include "winograd/kernels.hpp"

namespace wino::winograd {

/// Geometry and buffer pointers of one conv2d_winograd_layout[_into] call,
/// immutable during the column walk.
struct LayoutConv {
  const float* src = nullptr;
  float* dst = nullptr;
  const TransformedKernels* tk = nullptr;
  const TileTransformer* xf = nullptr;
  tensor::Layout ol;
  bool fuse_relu = false;
  int pad = 0;
  std::size_t channels = 0, kernel_count = 0;
  std::size_t in_n = 0, in_h = 0, in_w = 0, out_h = 0, out_w = 0;
  std::size_t mm = 0, n = 0, nsq = 0;
  std::size_t tiles_h = 0, tiles_w = 0;
  bool in_tiled = false, out_tiled = false;
  std::size_t in_tm = 0, in_th_n = 0, in_tw_n = 0, in_tmsq = 0;

  /// Flattened tile-column count: (img, th, tw) in lexicographic order.
  [[nodiscard]] std::size_t columns() const {
    return in_n * tiles_h * tiles_w;
  }
};

/// The tile walk (walk_kernels.cpp).
struct WalkKernels {
  /// Walk columns [col_begin, col_end) of `g` in blocks of `block` >= 1
  /// columns through `s`, writing every output tile of those columns.
  void (*walk_columns)(const LayoutConv& g, const WinogradScratch& s,
                       AccumulationOrder order, std::size_t block,
                       std::size_t col_begin, std::size_t col_end);
};

/// The fixed-extent sandwich kernels out = mat * in * mat^T
/// (tile_transforms.cpp). `a` is the row-major rows x cols matrix; each
/// returns false, touching nothing, for a shape without a fixed kernel.
struct TileKernels {
  /// One tile: in is cols x cols, out rows x rows; they may alias.
  bool (*tile)(const float* a, std::size_t rows, std::size_t cols,
               const float* in, float* out);
  /// `lanes` interleaved tiles in place (layout as in
  /// TileTransformer::transform_data_lanes).
  bool (*lanes)(const float* a, std::size_t rows, std::size_t cols,
                float* io, std::size_t lanes, std::size_t stride);
};

namespace baseline {
extern const WalkKernels kWalkKernels;
extern const TileKernels kTileKernels;
}  // namespace baseline
namespace avx2 {
extern const WalkKernels kWalkKernels;
extern const TileKernels kTileKernels;
}  // namespace avx2

}  // namespace wino::winograd
