// The int8 kernel source: patch gather and quantization for the im2col
// form, and the int8 Winograd tile walk with its coordinate GEMM, quantize
// and dequantize. Compiled once per kernel set
// (runtime/kernel_registry.hpp), each copy exporting its kQuantKernels.
#include <algorithm>

#include "quant/int8_kernels.hpp"

namespace wino::quant::WINO_KERNEL_ISA {
namespace {

// Writes the K-contiguous patches of output rows [y_begin, y_end) to
// `out`: pixel (oy, ox) takes channel-major r x r windows, the order of
// quantize_filters' rows. R fixes the kernel edge at compile time (0 reads
// g.r) so the common 3 x 3 window copies fully unrolled.
template <std::size_t R>
void gather_patches(const PatchGeometry& g, const std::int8_t* image,
                    std::size_t y_begin, std::size_t y_end,
                    std::int8_t* out) {
  const std::size_t r = R > 0 ? R : g.r;
  for (std::size_t oy = y_begin; oy < y_end; ++oy) {
    for (std::size_t ox = 0; ox < g.ow; ++ox) {
      const std::int8_t* win = image + oy * g.wp + ox;
      for (std::size_t c = 0; c < g.channels; ++c, win += g.plane) {
        for (std::size_t u = 0; u < r; ++u) {
          for (std::size_t v = 0; v < r; ++v) *out++ = win[u * g.wp + v];
        }
      }
    }
  }
}

// acc[i * B] = sum over c of uq[(c * nsq + i) * B] * vq[c * nsq + i]: the
// int32 channel reduction of one tile column of a [C][n*n][B] bank (uq
// and acc point at the column) against one kernel's [C][n*n] bank. S
// fixes the column stride B at compile time (0 reads `block`), so the
// one-column bank's contiguous loop vectorises.
template <std::size_t S>
void reduce_column(const std::int8_t* uq, std::size_t block,
                   const std::int8_t* vq, std::size_t channels,
                   std::size_t nsq, std::int32_t* acc) {
  const std::size_t stride = S > 0 ? S : block;
  for (std::size_t i = 0; i < nsq; ++i) acc[i * stride] = 0;
  for (std::size_t c = 0; c < channels; ++c, uq += nsq * block, vq += nsq) {
    for (std::size_t i = 0; i < nsq; ++i) {
      acc[i * stride] += static_cast<std::int32_t>(uq[i * stride]) *
                         static_cast<std::int32_t>(vq[i]);
    }
  }
}

void gather_patches_any(const PatchGeometry& g, const std::int8_t* image,
                        std::size_t y_begin, std::size_t y_end,
                        std::int8_t* out) {
  if (g.r == 3) {
    gather_patches<3>(g, image, y_begin, y_end, out);
  } else {
    gather_patches<0>(g, image, y_begin, y_end, out);
  }
}

void quantize_span(const float* in, std::size_t count, float inv_scale,
                   std::int8_t* out) {
  std::size_t i = 0;
#if defined(WINO_QUANT_SSE2)
  // The vector twin of quantize_symmetric: zero NaN lanes, clamp, round
  // under the same MXCSR mode (cvtps2dq), then narrow with saturating packs
  // that cannot saturate (every lane is already in [-127, 127]).
  const __m128 vinv = _mm_set1_ps(inv_scale);
  const __m128 lo = _mm_set1_ps(-127.0F);
  const __m128 hi = _mm_set1_ps(127.0F);
  const auto lanes = [&](std::size_t at) {
    __m128 x = _mm_mul_ps(_mm_loadu_ps(in + at), vinv);
    x = _mm_and_ps(x, _mm_cmpord_ps(x, x));
    return _mm_cvtps_epi32(_mm_min_ps(_mm_max_ps(x, lo), hi));
  };
  for (; i + 16 <= count; i += 16) {
    const __m128i w0 = _mm_packs_epi32(lanes(i), lanes(i + 4));
    const __m128i w1 = _mm_packs_epi32(lanes(i + 8), lanes(i + 12));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_packs_epi16(w0, w1));
  }
#endif
  for (; i < count; ++i) out[i] = quantize_symmetric(in[i], inv_scale);
}

void winograd_walk(const tensor::Tensor4fView& input,
                   const QuantizedWinogradKernels& qk,
                   const winograd::TileTransformer& xf, int pad,
                   bool fuse_relu, const WinogradGeometry& geo,
                   std::span<float> out, const QuantWinogradScratch& scratch) {
  const std::size_t m = geo.m;
  const std::size_t n_tile = geo.n_tile;
  const std::size_t nsq = geo.nsq;
  const std::size_t oh = geo.oh;
  const std::size_t ow = geo.ow;
  const std::size_t tiles_y = geo.tiles_y;
  const std::size_t tiles_x = geo.tiles_x;
  const std::size_t block = geo.block;
  const std::size_t C = input.shape().c;
  // Tile column (img, ty, tx), stepped in flattened column order.
  struct Column {
    std::size_t img, ty, tx;
  };
  const std::size_t tiles_img = tiles_y * tiles_x;
  const auto advance = [&](Column& col) {
    if (++col.tx < tiles_x) return;
    col.tx = 0;
    if (++col.ty < tiles_y) return;
    col.ty = 0;
    ++col.img;
  };
  // Gather channel c of the tile at `col`: element e lands at
  // dst[e * stride].
  const auto gather = [&](const Column& col, std::size_t c, float* dst,
                          std::size_t stride) {
    const std::ptrdiff_t base_h = static_cast<std::ptrdiff_t>(col.ty * m) - pad;
    const std::ptrdiff_t base_w = static_cast<std::ptrdiff_t>(col.tx * m) - pad;
    for (std::size_t i = 0; i < n_tile; ++i) {
      for (std::size_t j = 0; j < n_tile; ++j) {
        dst[(i * n_tile + j) * stride] =
            input.padded(col.img, c, base_h + static_cast<std::ptrdiff_t>(i),
                         base_w + static_cast<std::ptrdiff_t>(j));
      }
    }
  };
  // Scatter kernel k's output tile y (element e at y[e * stride]) at `col`.
  const auto scatter = [&](std::size_t k, const Column& col, const float* y,
                           std::size_t stride) {
    float* oplane = out.data() + (col.img * qk.kernels + k) * oh * ow;
    const std::size_t lim_h = std::min(m, oh - col.ty * m);
    const std::size_t lim_w = std::min(m, ow - col.tx * m);
    for (std::size_t i = 0; i < lim_h; ++i) {
      for (std::size_t j = 0; j < lim_w; ++j) {
        float v = y[(i * m + j) * stride];
        if (fuse_relu && v < 0.0F) v = 0.0F;
        oplane[(col.ty * m + i) * ow + col.tx * m + j] = v;
      }
    }
  };
  // The tile walk of winograd::conv2d_winograd_layout_into over integer
  // operands: per block of B columns, gather and transform every channel
  // in place in the [C][n*n][B] bank, self-calibrate and quantize each
  // column, then per kernel reduce over channels — a register-tiled int32
  // coordinate GEMM over full kRegCols-column tiles, a per-position loop
  // for the rest — into acc_blk[e][t], dequantize the block into the
  // front of the (no longer needed) fp32 bank, inverse-transform it there
  // in place and scatter each column. A block that cannot fill one
  // register tile runs at B = 1, as in the fp32 walk. Every per-tile
  // quantity comes from that tile's own data by the same fp32 expressions
  // and the reduction is exact int32, so B never changes the output.
  constexpr std::size_t kRegCols = 8;
  const std::size_t columns = input.shape().n * tiles_img;
  Column col{0, 0, 0};
  std::size_t B = block;
  for (std::size_t base = 0; base < columns; base += B) {
    if (columns - base < kRegCols) B = 1;
    const std::size_t bcols = std::min(B, columns - base);
    const Column first = col;
    for (std::size_t t = 0; t < bcols; ++t, advance(col)) {
      float* lane = scratch.u_blk.data() + t;
      for (std::size_t c = 0; c < C; ++c, lane += nsq * B) {
        // A literal stride at B = 1 keeps the inlined gather contiguous.
        if (B == 1) {
          gather(col, c, lane, 1);
        } else {
          gather(col, c, lane, B);
        }
      }
    }
    float* bank = scratch.u_blk.data();
    for (std::size_t c = 0; c < C; ++c, bank += nsq * B) {
      if (B == 1) {
        xf.transform_data_tile(bank, bank);
      } else {
        xf.transform_data_lanes(bank, bcols, B, scratch.m_f.data());
      }
    }
    for (std::size_t i = 0; i < nsq; ++i) {
      for (std::size_t t = 0; t < bcols; ++t) {
        const float* ue = scratch.u_blk.data() + i * B + t;
        std::int8_t* qe = scratch.uq_blk.data() + i * B + t;
        float pos_max = 0.0F;
        for (std::size_t c = 0; c < C; ++c) {
          pos_max = finite_max_abs(pos_max, ue[c * nsq * B]);
        }
        scratch.sv_blk[i * B + t] = pos_max / 127.0F;
        const float inv = pos_max > 0.0F ? 127.0F / pos_max : 0.0F;
        for (std::size_t c = 0; c < C; ++c) {
          qe[c * nsq * B] = quantize_symmetric(ue[c * nsq * B], inv);
        }
      }
    }
    const std::size_t full = bcols / kRegCols * kRegCols;
    for (std::size_t k = 0; k < qk.kernels; ++k) {
      for (std::size_t i = 0; full > 0 && i < nsq; ++i) {
        const std::int8_t* vp = qk.data.data() + k * C * nsq + i;
        for (std::size_t t = 0; t < full; t += kRegCols) {
          std::int32_t acc[kRegCols] = {};
          const std::int8_t* up = scratch.uq_blk.data() + i * B + t;
          for (std::size_t c = 0; c < C; ++c, up += nsq * B) {
            const auto vv = static_cast<std::int32_t>(vp[c * nsq]);
            for (std::size_t j = 0; j < kRegCols; ++j) {
              acc[j] += static_cast<std::int32_t>(up[j]) * vv;
            }
          }
          std::int32_t* dst = scratch.acc_blk.data() + i * B + t;
          for (std::size_t j = 0; j < kRegCols; ++j) dst[j] = acc[j];
        }
      }
      for (std::size_t t = full; t < bcols; ++t) {
        const std::int8_t* uq = scratch.uq_blk.data() + t;
        const std::int8_t* vq = qk.data.data() + k * C * nsq;
        std::int32_t* acc = scratch.acc_blk.data() + t;
        if (B == 1) {
          reduce_column<1>(uq, B, vq, C, nsq, acc);
        } else {
          reduce_column<0>(uq, B, vq, C, nsq, acc);
        }
      }
      const float* kscale = qk.scale.data() + k * nsq;
      float* deq = scratch.u_blk.data();  // the fp32 bank is dead by now
      for (std::size_t i = 0; i < nsq; ++i) {
        const std::int32_t* acc = scratch.acc_blk.data() + i * B;
        const float* sv = scratch.sv_blk.data() + i * B;
        for (std::size_t t = 0; t < bcols; ++t) {
          deq[i * B + t] = static_cast<float>(acc[t]) * (kscale[i] * sv[t]);
        }
      }
      if (B == 1) {
        xf.inverse_tile(deq, deq);
      } else {
        xf.inverse_lanes(deq, bcols, B, scratch.m_f.data());
      }
      Column at = first;
      for (std::size_t t = 0; t < bcols; ++t, advance(at)) {
        if (B == 1) {
          scatter(k, at, deq + t, 1);
        } else {
          scatter(k, at, deq + t, B);
        }
      }
    }
  }
}

}  // namespace

extern const QuantKernels kQuantKernels{.quantize_span = quantize_span,
                                        .gather_patches = gather_patches_any,
                                        .winograd_walk = winograd_walk};

}  // namespace wino::quant::WINO_KERNEL_ISA
