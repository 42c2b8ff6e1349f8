// The tile walks' data and inverse transforms: out = mat * in * mat^T for
// one tile (B = 1) or for a block of tiles interleaved lane by lane
// (B > 1), with fixed extents for the 4-, 5- and 6-point tiles of
// F(2,3), F(3,3) and F(4,3). Other shapes run TileTransformer::sandwich
// itself, one tile (or one lane, copied through a caller's n*n tile) at a
// time. A kernel source: compiled once per kernel set
// (runtime/kernel_registry.hpp), each copy exporting its kTileKernels.
//
// Every kernel evaluates each output element exactly as
// TileTransformer::sandwich does: the first product starts at 0 and adds
// coef * in over the nonzero coefficients of the row in ascending order;
// the second starts at 0 and adds tmp * coef over every coefficient in
// ascending order, zeros included. Coefficients stay runtime values (a
// compile-time -1 would let the compiler negate instead of multiply, which
// flips the sign of a NaN where the multiply keeps it), and this
// translation unit is built with -ffp-contract=off, so no multiply-add is
// fused either. Regrouping independent tiles into lanes changes no
// element's operations.
#include <cstring>

#include "winograd/walk.hpp"

namespace wino::winograd::WINO_KERNEL_ISA {
namespace {

/// One tile at fixed extents: a is R x N, in N x N, out R x R. in and out
/// may alias — the first product reads all of in before out is written.
template <std::size_t R, std::size_t N>
void fixed_tile(const float* a, const float* in, float* out) {
  float tmp[R * N];
  for (std::size_t i = 0; i < R; ++i) {
    float* row = tmp + i * N;
    for (std::size_t j = 0; j < N; ++j) row[j] = 0.0F;
    for (std::size_t k = 0; k < N; ++k) {
      const float c = a[i * N + k];
      if (c == 0.0F) continue;
      for (std::size_t j = 0; j < N; ++j) row[j] += c * in[k * N + j];
    }
  }
  for (std::size_t i = 0; i < R; ++i) {
    for (std::size_t j = 0; j < R; ++j) {
      float acc = 0.0F;
      for (std::size_t k = 0; k < N; ++k) acc += tmp[i * N + k] * a[j * N + k];
      out[i * R + j] = acc;
    }
  }
}

/// Tiles per register chunk of the block form, and their vector: one
/// element of kLaneChunk adjacent tiles in one 128-bit register. The vector
/// extension's + and * are the scalar IEEE operations applied lane by
/// lane, so a lane computes exactly what the scalar kernel computes for
/// its tile.
constexpr std::size_t kLaneChunk = 4;
using Lanes = float __attribute__((vector_size(kLaneChunk * sizeof(float))));

Lanes load_lanes(const float* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store_lanes(float* p, Lanes v) { std::memcpy(p, &v, sizeof v); }

/// Both products over one chunk of kLaneChunk tiles at fixed extents:
/// element e of lane t is read from in[e * in_stride + t] and written to
/// out[e * out_stride + t]. Each row of the first product is held in
/// registers and staged on the stack, so out may alias in.
template <std::size_t R, std::size_t N>
void fixed_chunk(const float* a, const float* in, std::size_t in_stride,
                 float* out, std::size_t out_stride) {
  Lanes stage[R * N];
  for (std::size_t i = 0; i < R; ++i) {
    Lanes row[N] = {};
    for (std::size_t k = 0; k < N; ++k) {
      const float c = a[i * N + k];
      if (c == 0.0F) continue;
      const float* x = in + k * N * in_stride;
      for (std::size_t j = 0; j < N; ++j) {
        row[j] += c * load_lanes(x + j * in_stride);
      }
    }
    for (std::size_t j = 0; j < N; ++j) stage[i * N + j] = row[j];
  }
  for (std::size_t i = 0; i < R; ++i) {
    Lanes acc[R] = {};
    for (std::size_t k = 0; k < N; ++k) {
      const Lanes x = stage[i * N + k];
      for (std::size_t j = 0; j < R; ++j) acc[j] += x * a[j * N + k];
    }
    for (std::size_t j = 0; j < R; ++j) {
      store_lanes(out + (i * R + j) * out_stride, acc[j]);
    }
  }
}

/// The block form at fixed extents: full register chunks in place, then
/// the remaining lanes through a zero-padded chunk on the stack.
template <std::size_t R, std::size_t N>
void fixed_lanes(const float* a, float* io, std::size_t lanes,
                 std::size_t stride) {
  std::size_t t = 0;
  for (; t + kLaneChunk <= lanes; t += kLaneChunk) {
    fixed_chunk<R, N>(a, io + t, stride, io + t, stride);
  }
  const std::size_t rest = lanes - t;
  if (rest == 0) return;
  float buf[N * N * kLaneChunk] = {};
  for (std::size_t e = 0; e < N * N; ++e) {
    for (std::size_t l = 0; l < rest; ++l) {
      buf[e * kLaneChunk + l] = io[e * stride + t + l];
    }
  }
  fixed_chunk<R, N>(a, buf, kLaneChunk, buf, kLaneChunk);
  for (std::size_t e = 0; e < R * R; ++e) {
    for (std::size_t l = 0; l < rest; ++l) {
      io[e * stride + t + l] = buf[e * kLaneChunk + l];
    }
  }
}

/// The fixed-extent kernels of one sandwich matrix shape.
struct Fixed {
  std::size_t rows, cols;
  void (*tile)(const float* a, const float* in, float* out);
  void (*lanes)(const float* a, float* io, std::size_t lanes,
                std::size_t stride);
};

constexpr Fixed kFixed[] = {
    {4, 4, fixed_tile<4, 4>, fixed_lanes<4, 4>},
    {5, 5, fixed_tile<5, 5>, fixed_lanes<5, 5>},
    {6, 6, fixed_tile<6, 6>, fixed_lanes<6, 6>},
    {2, 4, fixed_tile<2, 4>, fixed_lanes<2, 4>},
    {3, 5, fixed_tile<3, 5>, fixed_lanes<3, 5>},
    {4, 6, fixed_tile<4, 6>, fixed_lanes<4, 6>},
};

const Fixed* find_fixed(std::size_t rows, std::size_t cols) {
  for (const Fixed& f : kFixed) {
    if (f.rows == rows && f.cols == cols) return &f;
  }
  return nullptr;
}

bool tile_kernel(const float* a, std::size_t rows, std::size_t cols,
                 const float* in, float* out) {
  const Fixed* f = find_fixed(rows, cols);
  if (f == nullptr) return false;
  f->tile(a, in, out);
  return true;
}

bool lanes_kernel(const float* a, std::size_t rows, std::size_t cols,
                  float* io, std::size_t lanes, std::size_t stride) {
  const Fixed* f = find_fixed(rows, cols);
  if (f == nullptr) return false;
  f->lanes(a, io, lanes, stride);
  return true;
}

}  // namespace

extern const TileKernels kTileKernels{.tile = tile_kernel,
                                      .lanes = lanes_kernel};

}  // namespace wino::winograd::WINO_KERNEL_ISA
