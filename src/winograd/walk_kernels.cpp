// The fp32 Winograd tile walk: gather, transform, coordinate GEMM or
// per-position reduction, inverse and scatter over blocks of tile columns.
// A kernel source: compiled once per kernel set
// (runtime/kernel_registry.hpp), each copy exporting its kWalkKernels.
// Built with -ffp-contract=off (see walk_columns' bit-identity argument).
#include <algorithm>

#include "winograd/walk.hpp"

namespace wino::winograd::WINO_KERNEL_ISA {
namespace {

/// Valid data extent of the gather window at tile position (th, tw).
struct Window {
  std::ptrdiff_t y0 = 0, x0 = 0;
  std::size_t i_lo = 0, i_hi = 0, j_lo = 0, j_hi = 0;
  bool padded = false;
};

Window make_window(const LayoutConv& g, std::size_t th, std::size_t tw) {
  Window w;
  w.y0 = static_cast<std::ptrdiff_t>(th * g.mm) - g.pad;
  w.x0 = static_cast<std::ptrdiff_t>(tw * g.mm) - g.pad;
  w.i_lo = w.y0 < 0 ? static_cast<std::size_t>(-w.y0) : 0;
  w.i_hi = std::min(g.n, static_cast<std::size_t>(std::max<std::ptrdiff_t>(
                             0, static_cast<std::ptrdiff_t>(g.in_h) - w.y0)));
  w.j_lo = w.x0 < 0 ? static_cast<std::size_t>(-w.x0) : 0;
  w.j_hi = std::min(g.n, static_cast<std::size_t>(std::max<std::ptrdiff_t>(
                             0, static_cast<std::ptrdiff_t>(g.in_w) - w.x0)));
  w.padded = w.i_lo > 0 || w.i_hi < g.n || w.j_lo > 0 || w.j_hi < g.n;
  return w;
}

/// Gather maps for the tile-form input: window row i / column j of the
/// current tile position resolves to a (source tile, offset within tile)
/// pair, so the per-element gather is a single indexed load — no division,
/// no validity branch (validity is the contiguous [lo, hi) span instead).
void build_gather_maps(const LayoutConv& g, const WinogradScratch& s,
                       const Window& w) {
  for (std::size_t i = w.i_lo; i < w.i_hi; ++i) {
    const auto gy =
        static_cast<std::size_t>(w.y0 + static_cast<std::ptrdiff_t>(i));
    s.row_tile[i] = gy / g.in_tm;
    s.row_in[i] = (gy % g.in_tm) * g.in_tm;
  }
  for (std::size_t j = w.j_lo; j < w.j_hi; ++j) {
    const auto gx =
        static_cast<std::size_t>(w.x0 + static_cast<std::ptrdiff_t>(j));
    s.col_off[j] = (gx / g.in_tm) * g.in_tmsq + gx % g.in_tm;
  }
}

/// Write channel c of the gather window at (img, w) to dst: window element
/// (i, j) lands at dst[(i * n + j) * stride], so stride 1 fills one tile and
/// stride B fills one lane of a [n*n][B] bank slice. S fixes the stride at
/// compile time (0 reads `block`).
template <std::size_t S>
void gather_channel(const LayoutConv& g, const WinogradScratch& s,
                    const Window& w, std::size_t img, std::size_t c,
                    float* dst, std::size_t block) {
  const std::size_t stride = S > 0 ? S : block;
  if (w.padded) {
    for (std::size_t e = 0; e < g.nsq; ++e) dst[e * stride] = 0.0F;
  }
  if (!g.in_tiled) {
    const float* plane = g.src + (img * g.channels + c) * g.in_h * g.in_w;
    for (std::size_t i = w.i_lo; i < w.i_hi; ++i) {
      const float* rowp =
          plane +
          static_cast<std::size_t>(w.y0 + static_cast<std::ptrdiff_t>(i)) *
              g.in_w +
          static_cast<std::size_t>(w.x0 +
                                   static_cast<std::ptrdiff_t>(w.j_lo));
      float* drow = dst + i * g.n * stride;
      // Plain loop, not std::copy: the span is a handful of floats, and a
      // memmove call per tile row costs more than the loads it performs.
      for (std::size_t j = w.j_lo; j < w.j_hi; ++j) {
        drow[j * stride] = rowp[j - w.j_lo];
      }
    }
  } else {
    const std::size_t chan_base = (img * g.channels + c) * g.in_th_n;
    for (std::size_t i = w.i_lo; i < w.i_hi; ++i) {
      const float* row_ptr =
          g.src + (chan_base + s.row_tile[i]) * g.in_tw_n * g.in_tmsq +
          s.row_in[i];
      float* drow = dst + i * g.n * stride;
      for (std::size_t j = w.j_lo; j < w.j_hi; ++j) {
        drow[j * stride] = row_ptr[s.col_off[j]];
      }
    }
  }
}

/// Scatter the m*m output tile y (element e at y[e * stride]) for kernel
/// k at tile (img, th, tw) into the requested output layout, clipping the
/// ragged right/bottom edge. S as in gather_channel.
template <std::size_t S>
void scatter_tile(const LayoutConv& g, const float* y, std::size_t block,
                  std::size_t img, std::size_t k, std::size_t th,
                  std::size_t tw) {
  const std::size_t stride = S > 0 ? S : block;
  const std::size_t mm = g.mm;
  const std::size_t ie = std::min(mm, g.out_h - th * mm);
  const std::size_t je = std::min(mm, g.out_w - tw * mm);
  const auto relu = [&](float v) {
    return g.fuse_relu ? (v > 0.0F ? v : 0.0F) : v;
  };
  if (!g.out_tiled) {
    float* out_plane =
        g.dst + (img * g.kernel_count + k) * g.out_h * g.out_w;
    for (std::size_t i = 0; i < ie; ++i) {
      float* orow = out_plane + (th * mm + i) * g.out_w + tw * mm;
      const float* yrow = y + i * mm * stride;
      for (std::size_t j = 0; j < je; ++j) orow[j] = relu(yrow[j * stride]);
    }
  } else {
    // Tile-form scatter: one contiguous m*m block per (k, tile);
    // positions past the feature map edge hold zero, preserving the
    // layout's ragged-tile invariant (ReLU keeps 0 at 0).
    float* block = g.dst + tensor::winograd_tile_offset(g.ol, img, k, th, tw);
    if (ie == mm && je == mm) {
      for (std::size_t e = 0; e < mm * mm; ++e) block[e] = relu(y[e * stride]);
    } else {
      std::fill(block, block + mm * mm, 0.0F);
      for (std::size_t i = 0; i < ie; ++i) {
        for (std::size_t j = 0; j < je; ++j) {
          block[i * mm + j] = relu(y[(i * mm + j) * stride]);
        }
      }
    }
  }
}

/// Tile column position (img, th, tw), stepped in flattened column order:
/// a walk decodes its first column once and advances through the rest,
/// so neither the gather nor the per-kernel output pass divides.
struct ColumnPos {
  std::size_t img = 0, th = 0, tw = 0;

  ColumnPos(const LayoutConv& g, std::size_t col) {
    const std::size_t per_img = g.tiles_h * g.tiles_w;
    img = col / per_img;
    const std::size_t rem = col % per_img;
    th = rem / g.tiles_w;
    tw = rem % g.tiles_w;
  }

  void advance(const LayoutConv& g) {
    if (++tw < g.tiles_w) return;
    tw = 0;
    if (++th < g.tiles_h) return;
    th = 0;
    ++img;
  }
};

/// Register tile of the coordinate GEMM: kRegPos transform positions by
/// kRegCols tile columns, kRegPos * kRegCols independent accumulators.
constexpr std::size_t kRegCols = 8;
constexpr std::size_t kRegPos = 4;

/// One register tile of the transform-domain coordinate GEMM: P positions
/// from e by kRegCols columns from t of kernel k, each partial sum held
/// across the whole channel loop, landing in acc_blk[e][t]. Per channel
/// the tile reads P adjacent rows of the bank and P adjacent values of
/// V_kc. Kept out of line: inlined into walk_columns, gcc vectorises the
/// tile across positions and gathers every bank row with scalar loads,
/// 1.3-1.5x slower.
template <std::size_t P>
[[gnu::noinline]] void coordinate_tile(const LayoutConv& g,
                                       const WinogradScratch& s,
                                       std::size_t block, std::size_t t,
                                       std::size_t e, std::size_t k) {
  const std::size_t nsq = g.nsq;
  float acc[P][kRegCols] = {};
  const float* up = s.u_blk.data() + e * block + t;
  const float* vp = g.tk->v(k, 0).data() + e;
  for (std::size_t c = 0; c < g.channels;
       ++c, up += nsq * block, vp += nsq) {
    // Scalars first, then one contiguous row per position: the shape the
    // vectoriser maps onto column vectors.
    float vv[P];
    for (std::size_t p = 0; p < P; ++p) vv[p] = vp[p];
    for (std::size_t p = 0; p < P; ++p) {
      const float* row = up + p * block;
      for (std::size_t j = 0; j < kRegCols; ++j) acc[p][j] += row[j] * vv[p];
    }
  }
  float* out = s.acc_blk.data() + e * block + t;
  for (std::size_t p = 0; p < P; ++p) {
    for (std::size_t j = 0; j < kRegCols; ++j) out[p * block + j] = acc[p][j];
  }
}

/// Transform-domain coordinate GEMM for kernel k over the block's first
/// `full` columns (a multiple of kRegCols).
void coordinate_gemm(const LayoutConv& g, const WinogradScratch& s,
                     std::size_t block, std::size_t full, std::size_t k) {
  for (std::size_t t = 0; t < full; t += kRegCols) {
    std::size_t e = 0;
    for (; e + kRegPos <= g.nsq; e += kRegPos) {
      coordinate_tile<kRegPos>(g, s, block, t, e, k);
    }
    for (; e < g.nsq; ++e) coordinate_tile<1>(g, s, block, t, e, k);
  }
}

/// Transform-domain reduction of one column of kernel k outside the
/// register tiles: acc_blk[e][t] = sum over ascending c of U_c[e] * V_kc[e].
/// S fixes the column stride B at compile time (0 reads `block`), so the
/// one-column bank's contiguous loops vectorise.
template <std::size_t S>
void reduce_column(const LayoutConv& g, const WinogradScratch& s,
                   std::size_t block, std::size_t t, std::size_t k) {
  const std::size_t nsq = g.nsq;
  const std::size_t stride = S > 0 ? S : block;
  const float* u = s.u_blk.data() + t;
  float* acc = s.acc_blk.data() + t;
  for (std::size_t e = 0; e < nsq; ++e) acc[e * stride] = 0.0F;
  for (std::size_t c = 0; c < g.channels; ++c, u += nsq * block) {
    const float* v = g.tk->v(k, c).data();
    for (std::size_t e = 0; e < nsq; ++e) {
      acc[e * stride] += u[e * stride] * v[e];
    }
  }
}

/// Post-inverse reduction of one column of kernel k (the paper's Fig 7
/// accumulation buffers): acc_y = sum over ascending c of A^T (U_c . V_kc) A,
/// the product tile inverse-transformed in place in acc_m.
void reduce_column_post_inverse(const LayoutConv& g, const WinogradScratch& s,
                                std::size_t block, std::size_t t,
                                std::size_t k) {
  const std::size_t nsq = g.nsq;
  const float* u = s.u_blk.data() + t;
  float* prod = s.acc_m.data();
  std::fill(s.acc_y.begin(), s.acc_y.end(), 0.0F);
  for (std::size_t c = 0; c < g.channels; ++c, u += nsq * block) {
    const float* v = g.tk->v(k, c).data();
    for (std::size_t e = 0; e < nsq; ++e) prod[e] = u[e * block] * v[e];
    g.xf->inverse_tile(prod, prod);
    for (std::size_t i = 0; i < s.acc_y.size(); ++i) s.acc_y[i] += prod[i];
  }
}

/// One block of the walk: `bcols` columns from `pos` (advanced past them)
/// in a bank of column stride `block`. S fixes the stride at compile time
/// (0 reads `block`); walk_columns runs every B = 1 block as S = 1.
template <std::size_t S>
void walk_block(const LayoutConv& g, const WinogradScratch& s,
                AccumulationOrder order, std::size_t block, std::size_t bcols,
                ColumnPos& pos) {
  const TileTransformer& xf = *g.xf;
  const std::size_t nsq = g.nsq;
  const ColumnPos first = pos;
  for (std::size_t t = 0; t < bcols; ++t, pos.advance(g)) {
    const Window w = make_window(g, pos.th, pos.tw);
    if (g.in_tiled) build_gather_maps(g, s, w);
    float* lane = s.u_blk.data() + t;
    for (std::size_t c = 0; c < g.channels; ++c, lane += nsq * block) {
      gather_channel<S>(g, s, w, pos.img, c, lane, block);
    }
  }
  float* bank = s.u_blk.data();
  for (std::size_t c = 0; c < g.channels; ++c, bank += nsq * block) {
    if constexpr (S == 1) {
      xf.transform_data_tile(bank, bank);
    } else {
      xf.transform_data_lanes(bank, bcols, block, s.acc_m.data());
    }
  }

  if (order == AccumulationOrder::kPostInverse) {
    for (std::size_t k = 0; k < g.kernel_count; ++k) {
      ColumnPos at = first;
      for (std::size_t t = 0; t < bcols; ++t, at.advance(g)) {
        reduce_column_post_inverse(g, s, block, t, k);
        scatter_tile<1>(g, s.acc_y.data(), 1, at.img, k, at.th, at.tw);
      }
    }
    return;
  }
  const std::size_t full = bcols / kRegCols * kRegCols;
  float* acc = s.acc_blk.data();
  for (std::size_t k = 0; k < g.kernel_count; ++k) {
    if (full > 0) coordinate_gemm(g, s, block, full, k);
    for (std::size_t t = full; t < bcols; ++t) {
      reduce_column<S>(g, s, block, t, k);
    }
    if constexpr (S == 1) {
      xf.inverse_tile(acc, acc);
    } else {
      xf.inverse_lanes(acc, bcols, block, s.acc_m.data());
    }
    ColumnPos at = first;
    for (std::size_t t = 0; t < bcols; ++t, at.advance(g)) {
      scatter_tile<S>(g, acc + t, block, at.img, k, at.th, at.tw);
    }
  }
}

/// The Winograd tile walk over columns [col_begin, col_end), in blocks of
/// `block` columns (any B >= 1):
///  1. gather every column of the block into the bank u_blk[c][e][t] and
///     transform it in place — one tile at B = 1, all of a channel's
///     columns at once at B > 1 — the data transform is shared by all K
///     kernels (Section IV-E);
///  2. per kernel, reduce over channels — transform-domain: the register-
///     tiled coordinate GEMM over full kRegCols-column tiles, then a
///     per-position loop for the remaining columns, into acc_blk[e][t];
///     post-inverse: per column, inverse each channel's product and sum
///     the outputs;
///  3. inverse-transform the block's accumulators in place (transform
///     domain) and scatter each column while the block is still cache-hot.
/// A block that cannot fill one register tile — a walk over fewer than
/// kRegCols columns, or the last columns of a longer one — runs at B = 1
/// in the first C * n*n floats of the bank instead: at stride 1 every
/// loop is contiguous, which the strided per-position tail is not.
///
/// Bit-identity with conv2d_winograd holds per element: every (kernel,
/// column, position) chain starts at 0 and adds in strictly ascending
/// channel order whatever the block size or a column's place in it, and
/// the tile transforms evaluate each element as TileTransformer's
/// transform_data / inverse do — the same float operations in the same
/// order, only regrouped across independent columns. (This translation
/// unit is built with -ffp-contract=off, so the compiler cannot contract
/// the multiply-add differently in the two loops either.)
void walk_columns(const LayoutConv& g, const WinogradScratch& s,
                  AccumulationOrder order, std::size_t block,
                  std::size_t col_begin, std::size_t col_end) {
  ColumnPos pos(g, col_begin);
  for (std::size_t base = col_begin; base < col_end; base += block) {
    if (col_end - base < kRegCols) block = 1;
    if (block == 1) {
      walk_block<1>(g, s, order, 1, 1, pos);
    } else {
      walk_block<0>(g, s, order, block, std::min(block, col_end - base),
                    pos);
    }
  }
}

}  // namespace

extern const WalkKernels kWalkKernels{.walk_columns = walk_columns};

}  // namespace wino::winograd::WINO_KERNEL_ISA
