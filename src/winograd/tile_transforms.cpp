// The tile walks' data and inverse transforms: out = mat * in * mat^T for
// one tile (B = 1) or for a block of tiles interleaved lane by lane
// (B > 1), with fixed extents for the 4-, 5- and 6-point tiles of
// F(2,3), F(3,3) and F(4,3). Other shapes run sandwich itself, one tile
// (or one lane, copied through a caller's n*n tile) at a time.
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

#include "winograd/kernels.hpp"

namespace wino::winograd {
namespace {

/// One tile at fixed extents: mat is R x N, in N x N, out R x R. in and out
/// may alias — the first product reads all of in before out is written.
template <std::size_t R, std::size_t N>
void fixed_tile(const FMatrix& mat, const float* in, float* out) {
  const float* a = &mat(0, 0);
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
/// element of kLaneChunk adjacent tiles in one SSE register. The vector
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
void fixed_lanes(const FMatrix& mat, float* io, std::size_t lanes,
                 std::size_t stride) {
  const float* a = &mat(0, 0);
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

}  // namespace

TileTransformer::SandwichKernels TileTransformer::select_kernels(
    std::size_t rows, std::size_t cols) {
  const auto fixed = [&](std::size_t r, std::size_t c) {
    return rows == r && cols == c;
  };
  if (fixed(4, 4)) return {fixed_tile<4, 4>, fixed_lanes<4, 4>};
  if (fixed(5, 5)) return {fixed_tile<5, 5>, fixed_lanes<5, 5>};
  if (fixed(6, 6)) return {fixed_tile<6, 6>, fixed_lanes<6, 6>};
  if (fixed(2, 4)) return {fixed_tile<2, 4>, fixed_lanes<2, 4>};
  if (fixed(3, 5)) return {fixed_tile<3, 5>, fixed_lanes<3, 5>};
  if (fixed(4, 6)) return {fixed_tile<4, 6>, fixed_lanes<4, 6>};
  return {};
}

void TileTransformer::sandwich_lanes(const FMatrix& mat, float* io,
                                     std::size_t lanes, std::size_t stride,
                                     float* tile) const {
  const std::size_t in_size = mat.cols() * mat.cols();
  const std::size_t out_size = mat.rows() * mat.rows();
  for (std::size_t t = 0; t < lanes; ++t) {
    for (std::size_t e = 0; e < in_size; ++e) tile[e] = io[e * stride + t];
    sandwich(mat, {tile, in_size}, {tile, out_size});
    for (std::size_t e = 0; e < out_size; ++e) io[e * stride + t] = tile[e];
  }
}

void TileTransformer::transform_data_tile(const float* d, float* u) const {
  if (data_.tile != nullptr) {
    data_.tile(bt_, d, u);
    return;
  }
  const auto nsq = static_cast<std::size_t>(n_ * n_);
  sandwich(bt_, {d, nsq}, {u, nsq});
}

void TileTransformer::inverse_tile(const float* mm, float* y) const {
  if (inv_.tile != nullptr) {
    inv_.tile(at_, mm, y);
    return;
  }
  sandwich(at_, {mm, static_cast<std::size_t>(n_ * n_)},
           {y, static_cast<std::size_t>(m_ * m_)});
}

void TileTransformer::transform_data_lanes(float* bank, std::size_t lanes,
                                           std::size_t stride,
                                           float* tile) const {
  if (data_.lanes != nullptr) {
    data_.lanes(bt_, bank, lanes, stride);
  } else {
    sandwich_lanes(bt_, bank, lanes, stride, tile);
  }
}

void TileTransformer::inverse_lanes(float* acc, std::size_t lanes,
                                    std::size_t stride, float* tile) const {
  if (inv_.lanes != nullptr) {
    inv_.lanes(at_, acc, lanes, stride);
  } else {
    sandwich_lanes(at_, acc, lanes, stride, tile);
  }
}

}  // namespace wino::winograd
