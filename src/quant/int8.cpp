#include "quant/int8.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "runtime/igemm.hpp"
#include "runtime/thread_pool.hpp"

namespace wino::quant {
namespace {

// Folds |v| into a running finite maximum: NaN and +/-Inf are skipped, so
// one non-finite value cannot turn a scale into Inf (whose inverse, 0,
// would zero the tensor and dequantize every output as 0 * Inf = NaN).
// The skipped values still quantize, to 0 and +/-127.
inline float finite_max_abs(float worst, float v) {
  const float m = std::abs(v);
  return m > worst && m <= std::numeric_limits<float>::max() ? m : worst;
}

// Largest finite |v| over a span; the numerator of every symmetric scale.
float span_max_abs(std::span<const float> values) {
  float worst = 0.0F;
  for (const float v : values) worst = finite_max_abs(worst, v);
  return worst;
}

void check_span(std::size_t got, std::size_t want, const char* name) {
  if (got != want) {
    throw std::invalid_argument(std::string("quant scratch span '") + name +
                                "': got " + std::to_string(got) +
                                " elements, need " + std::to_string(want));
  }
}

// Activation scale for one image: the static calibration scale when
// provided, else this image's own max|x| / 127. Never depends on other
// batch members, so batching cannot perturb results.
float image_act_scale(float act_scale, std::span<const float> image) {
  if (act_scale > 0.0F) return act_scale;
  return span_max_abs(image) / 127.0F;
}

// Extents of the padded int8 image and its patch panel.
struct PatchGeometry {
  std::size_t channels;  ///< C
  std::size_t plane;     ///< padded H * padded W
  std::size_t wp;        ///< padded W
  std::size_t r;         ///< kernel edge
  std::size_t ow;        ///< output width
};

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

}  // namespace

float symmetric_scale(std::span<const float> values) {
  return span_max_abs(values) / 127.0F;
}

void quantize_span(std::span<const float> in, float inv_scale,
                   std::span<std::int8_t> out) {
  if (in.size() != out.size()) {
    throw std::invalid_argument("quantize_span: size mismatch");
  }
  std::size_t i = 0;
#if defined(WINO_QUANT_SSE2)
  // The vector twin of quantize_symmetric: zero NaN lanes, clamp, round
  // under the same MXCSR mode (cvtps2dq), then narrow with saturating packs
  // that cannot saturate (every lane is already in [-127, 127]).
  const __m128 vinv = _mm_set1_ps(inv_scale);
  const __m128 lo = _mm_set1_ps(-127.0F);
  const __m128 hi = _mm_set1_ps(127.0F);
  const auto lanes = [&](std::size_t at) {
    __m128 x = _mm_mul_ps(_mm_loadu_ps(in.data() + at), vinv);
    x = _mm_and_ps(x, _mm_cmpord_ps(x, x));
    return _mm_cvtps_epi32(_mm_min_ps(_mm_max_ps(x, lo), hi));
  };
  for (; i + 16 <= in.size(); i += 16) {
    const __m128i w0 = _mm_packs_epi32(lanes(i), lanes(i + 4));
    const __m128i w1 = _mm_packs_epi32(lanes(i + 8), lanes(i + 12));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out.data() + i),
                     _mm_packs_epi16(w0, w1));
  }
#endif
  for (; i < in.size(); ++i) out[i] = quantize_symmetric(in[i], inv_scale);
}

QuantizedFilter quantize_filters(const tensor::Tensor4f& kernels) {
  const auto& ks = kernels.shape();
  QuantizedFilter qf;
  qf.kernels = ks.n;
  qf.channels = ks.c;
  qf.r = ks.h;
  if (ks.h != ks.w) {
    throw std::invalid_argument("quantize_filters: non-square kernels");
  }
  const std::size_t inner = qf.inner();
  qf.data.resize(qf.kernels * inner);
  qf.scale.resize(qf.kernels);
  const auto flat = kernels.flat();
  for (std::size_t k = 0; k < qf.kernels; ++k) {
    const auto row = flat.subspan(k * inner, inner);
    const float scale = symmetric_scale(row);
    qf.scale[k] = scale;
    const float inv = scale > 0.0F ? 1.0F / scale : 0.0F;
    quantize_span(row, inv, std::span(qf.data).subspan(k * inner, inner));
  }
  return qf;
}

QuantizedWinogradKernels quantize_winograd_kernels(
    const winograd::TileTransformer& xf, const tensor::Tensor4f& kernels) {
  const auto& ks = kernels.shape();
  if (ks.h != ks.w || static_cast<int>(ks.h) != xf.r()) {
    throw std::invalid_argument(
        "quantize_winograd_kernels: kernel size does not match transformer");
  }
  const std::size_t n_tile = static_cast<std::size_t>(xf.tile());
  const std::size_t nsq = n_tile * n_tile;
  const std::size_t rsq = ks.h * ks.w;
  QuantizedWinogradKernels qk;
  qk.kernels = ks.n;
  qk.channels = ks.c;
  qk.tile_sq = nsq;
  qk.data.resize(qk.kernels * qk.channels * nsq);
  qk.scale.resize(qk.kernels * nsq);

  // Transform the whole bank in fp32 first, then pick one scale per
  // (output channel, tile position) over that position's C values: the
  // channel reduction sums across c at a fixed position, so only the c
  // axis must share a scale for the int32 sum to dequantize with a single
  // multiply — and per-position scales absorb the transform's
  // position-magnitude disparity.
  std::vector<float> v_bank(qk.kernels * qk.channels * nsq);
  const auto flat = kernels.flat();
  for (std::size_t k = 0; k < qk.kernels; ++k) {
    for (std::size_t c = 0; c < qk.channels; ++c) {
      xf.transform_filter(
          flat.subspan((k * qk.channels + c) * rsq, rsq),
          std::span<float>(v_bank.data() + (k * qk.channels + c) * nsq, nsq));
    }
  }
  for (std::size_t k = 0; k < qk.kernels; ++k) {
    const float* kbase = v_bank.data() + k * qk.channels * nsq;
    for (std::size_t i = 0; i < nsq; ++i) {
      float pos_max = 0.0F;
      for (std::size_t c = 0; c < qk.channels; ++c) {
        pos_max = finite_max_abs(pos_max, kbase[c * nsq + i]);
      }
      const float scale = pos_max / 127.0F;
      qk.scale[k * nsq + i] = scale;
      const float inv = scale > 0.0F ? 1.0F / scale : 0.0F;
      for (std::size_t c = 0; c < qk.channels; ++c) {
        qk.data[(k * qk.channels + c) * nsq + i] =
            quantize_symmetric(kbase[c * nsq + i], inv);
      }
    }
  }
  return qk;
}

void conv2d_im2col_int8_into(const tensor::Tensor4fView& input,
                             const QuantizedFilter& qf, int pad,
                             float act_scale, bool fuse_relu,
                             std::span<float> out,
                             const QuantIm2colScratch& scratch) {
  const auto& is = input.shape();
  if (is.c != qf.channels) {
    throw std::invalid_argument("conv2d_im2col_int8: channel mismatch");
  }
  if (pad < 0) {
    throw std::invalid_argument("conv2d_im2col_int8: negative padding");
  }
  const std::size_t r = qf.r;
  const std::size_t p = static_cast<std::size_t>(pad);
  const std::size_t hp = is.h + 2 * p;
  const std::size_t wp = is.w + 2 * p;
  if (hp < r || wp < r) {
    throw std::invalid_argument("conv2d_im2col_int8: kernel exceeds input");
  }
  const std::size_t oh = hp - r + 1;
  const std::size_t ow = wp - r + 1;
  const std::size_t cols = oh * ow;
  const std::size_t inner = qf.inner();
  const std::size_t plane = hp * wp;
  check_span(scratch.image.size(), is.c * plane, "image");
  check_span(scratch.qpanel.size(), cols * inner, "qpanel");
  check_span(scratch.acc.size(), qf.kernels * cols, "acc");
  check_span(out.size(), is.n * qf.kernels * cols, "out");

  // The padding border is written once per call and never overwritten:
  // every image quantizes only the interior.
  std::fill(scratch.image.begin(), scratch.image.end(), std::int8_t{0});
  const std::size_t image_volume = is.c * is.h * is.w;
  for (std::size_t img = 0; img < is.n; ++img) {
    const auto src = input.flat().subspan(img * image_volume, image_volume);
    const float a_scale = image_act_scale(act_scale, src);
    const float inv = a_scale > 0.0F ? 1.0F / a_scale : 0.0F;
    // Quantize each input value once, into the zero-padded int8 image
    // (quantize_symmetric(0) == 0, so the border is the quantized padding).
    for (std::size_t c = 0; c < is.c; ++c) {
      for (std::size_t y = 0; y < is.h; ++y) {
        quantize_span(src.subspan((c * is.h + y) * is.w, is.w), inv,
                      scratch.image.subspan(c * plane + (y + p) * wp + p,
                                            is.w));
      }
    }
    // Gather K-contiguous int8 patches; output rows write disjoint panel
    // rows.
    runtime::parallel_for(oh, [&](std::size_t y_begin, std::size_t y_end) {
      const PatchGeometry g{is.c, plane, wp, r, ow};
      std::int8_t* rows = scratch.qpanel.data() + y_begin * ow * inner;
      if (r == 3) {
        gather_patches<3>(g, scratch.image.data(), y_begin, y_end, rows);
      } else {
        gather_patches<0>(g, scratch.image.data(), y_begin, y_end, rows);
      }
    });
    runtime::igemm_nt(qf.kernels, cols, inner, qf.data.data(), inner,
                      scratch.qpanel.data(), inner, scratch.acc.data(), cols);
    float* obase = out.data() + img * qf.kernels * cols;
    for (std::size_t k = 0; k < qf.kernels; ++k) {
      const float deq = qf.scale[k] * a_scale;
      const std::int32_t* arow = scratch.acc.data() + k * cols;
      float* orow = obase + k * cols;
      if (fuse_relu) {
        for (std::size_t j = 0; j < cols; ++j) {
          const float v = static_cast<float>(arow[j]) * deq;
          orow[j] = v > 0.0F ? v : 0.0F;
        }
      } else {
        for (std::size_t j = 0; j < cols; ++j) {
          orow[j] = static_cast<float>(arow[j]) * deq;
        }
      }
    }
  }
}

void conv2d_winograd_int8_into(const tensor::Tensor4fView& input,
                               const QuantizedWinogradKernels& qk,
                               const winograd::TileTransformer& xf, int pad,
                               float act_scale, bool fuse_relu,
                               std::span<float> out,
                               const QuantWinogradScratch& scratch) {
  const auto& is = input.shape();
  if (is.c != qk.channels) {
    throw std::invalid_argument("conv2d_winograd_int8: channel mismatch");
  }
  const std::size_t m = static_cast<std::size_t>(xf.m());
  const std::size_t r = static_cast<std::size_t>(xf.r());
  const std::size_t n_tile = static_cast<std::size_t>(xf.tile());
  const std::size_t nsq = n_tile * n_tile;
  if (nsq != qk.tile_sq) {
    throw std::invalid_argument(
        "conv2d_winograd_int8: bank tile area does not match transformer");
  }
  const std::size_t oh = is.h + 2 * static_cast<std::size_t>(pad) - r + 1;
  const std::size_t ow = is.w + 2 * static_cast<std::size_t>(pad) - r + 1;
  const std::size_t tiles_y = (oh + m - 1) / m;
  const std::size_t tiles_x = (ow + m - 1) / m;
  check_span(out.size(), is.n * qk.kernels * oh * ow, "out");
  const std::size_t block = scratch.acc_blk.size() / nsq;
  const std::size_t C = is.c;
  if (block == 0) {
    throw std::invalid_argument(
        "conv2d_winograd_int8: scratch must hold at least one tile column");
  }
  check_span(scratch.u_blk.size(), C * nsq * block, "u_blk");
  check_span(scratch.sv_blk.size(), nsq * block, "sv_blk");
  check_span(scratch.uq_blk.size(), C * nsq * block, "uq_blk");
  check_span(scratch.acc_blk.size(), nsq * block, "acc_blk");
  check_span(scratch.m_f.size(), nsq, "m_f");

  // The Winograd form self-calibrates in the transform domain: each tile
  // position takes its scale from the observed max across channels (the
  // channel reduction demands the c axis share a scale, nothing more) —
  // per-image/per-tile deterministic, so thread bit-identity is free. The
  // static act_scale is for the spatial-domain forms; ignore it here.
  (void)act_scale;

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
  const std::size_t columns = is.n * tiles_img;
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

namespace {

// Shared allocating-path scratch setup so the wrappers stay thin and the
// _into cores remain the single numerical definition.
tensor::Tensor4f run_im2col_int8(const tensor::Tensor4f& input,
                                 const QuantizedFilter& qf, int pad,
                                 float act_scale) {
  const auto& is = input.shape();
  const std::size_t hp = is.h + 2 * static_cast<std::size_t>(pad);
  const std::size_t wp = is.w + 2 * static_cast<std::size_t>(pad);
  const std::size_t cols = (hp - qf.r + 1) * (wp - qf.r + 1);
  std::vector<std::int8_t> image(is.c * hp * wp);
  std::vector<std::int8_t> qpanel(cols * qf.inner());
  std::vector<std::int32_t> acc(qf.kernels * cols);
  tensor::Tensor4f out(is.n, qf.kernels, hp - qf.r + 1, wp - qf.r + 1);
  conv2d_im2col_int8_into(
      tensor::Tensor4fView(is, input.flat()), qf, pad, act_scale,
      /*fuse_relu=*/false, out.flat(),
      QuantIm2colScratch{image, qpanel, acc});
  return out;
}

tensor::Tensor4f run_winograd_int8(const tensor::Tensor4f& input,
                                   const QuantizedWinogradKernels& qk,
                                   const winograd::TileTransformer& xf,
                                   int pad, float act_scale) {
  const auto& is = input.shape();
  const std::size_t r = static_cast<std::size_t>(xf.r());
  const std::size_t n_tile = static_cast<std::size_t>(xf.tile());
  const std::size_t nsq = n_tile * n_tile;
  const std::size_t oh = is.h + 2 * static_cast<std::size_t>(pad) - r + 1;
  const std::size_t ow = is.w + 2 * static_cast<std::size_t>(pad) - r + 1;
  const std::size_t block = winograd::default_block_columns(
      is.c, n_tile, is.n * ((oh + xf.m() - 1) / xf.m()) *
                        ((ow + xf.m() - 1) / xf.m()));
  std::vector<float> u_blk(is.c * nsq * block);
  std::vector<float> sv_blk(nsq * block);
  std::vector<std::int8_t> uq_blk(is.c * nsq * block);
  std::vector<std::int32_t> acc_blk(nsq * block);
  std::vector<float> m_f(nsq);
  tensor::Tensor4f out(is.n, qk.kernels, oh, ow);
  conv2d_winograd_int8_into(
      tensor::Tensor4fView(is, input.flat()), qk, xf, pad, act_scale,
      /*fuse_relu=*/false, out.flat(),
      QuantWinogradScratch{.u_blk = u_blk,
                           .sv_blk = sv_blk,
                           .uq_blk = uq_blk,
                           .acc_blk = acc_blk,
                           .m_f = m_f});
  return out;
}

}  // namespace

tensor::Tensor4f conv2d_im2col_int8(const tensor::Tensor4f& input,
                                    const tensor::Tensor4f& kernels, int pad,
                                    float act_scale) {
  return run_im2col_int8(input, quantize_filters(kernels), pad, act_scale);
}

tensor::Tensor4f conv2d_im2col_int8(const tensor::Tensor4f& input,
                                    const QuantizedFilter& qf, int pad,
                                    float act_scale) {
  return run_im2col_int8(input, qf, pad, act_scale);
}

tensor::Tensor4f conv2d_winograd_int8(const tensor::Tensor4f& input,
                                      const tensor::Tensor4f& kernels, int m,
                                      int pad, float act_scale) {
  const winograd::TileTransformer xf(
      winograd::transforms(m, static_cast<int>(kernels.shape().h)));
  return run_winograd_int8(input, quantize_winograd_kernels(xf, kernels), xf,
                           pad, act_scale);
}

tensor::Tensor4f conv2d_winograd_int8(const tensor::Tensor4f& input,
                                      const QuantizedWinogradKernels& qk,
                                      const winograd::TileTransformer& xf,
                                      int pad, float act_scale) {
  return run_winograd_int8(input, qk, xf, pad, act_scale);
}

}  // namespace wino::quant
