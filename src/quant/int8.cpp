// The int8 convolutions' argument validation, quantization of filter
// banks and dispatch. The hot loops live in int8_kernels.cpp, compiled
// once per kernel set.
#include "quant/int8.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "quant/int8_kernels.hpp"
#include "runtime/igemm.hpp"
#include "runtime/kernel_registry.hpp"
#include "runtime/thread_pool.hpp"

namespace wino::quant {
namespace {

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

const QuantKernels& active_quant() {
  static constexpr const QuantKernels* kSets[] =
      WINO_KERNEL_TABLES(kQuantKernels);
  return runtime::active_table(kSets);
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
  active_quant().quantize_span(in.data(), in.size(), inv_scale, out.data());
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

  const QuantKernels& kernels = active_quant();
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
        kernels.quantize_span(src.data() + (c * is.h + y) * is.w, is.w, inv,
                              scratch.image.data() + c * plane +
                                  (y + p) * wp + p);
      }
    }
    // Gather K-contiguous int8 patches; output rows write disjoint panel
    // rows.
    const PatchGeometry g{is.c, plane, wp, r, ow};
    runtime::parallel_for(oh, [&](std::size_t y_begin, std::size_t y_end) {
      kernels.gather_patches(g, scratch.image.data(), y_begin, y_end,
                             scratch.qpanel.data() + y_begin * ow * inner);
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
  const WinogradGeometry geo{m, n_tile, nsq, oh, ow, tiles_y, tiles_x, block};
  active_quant().winograd_walk(input, qk, xf, pad, fuse_relu, geo, out,
                               scratch);
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
