// Winograd tile walk contract: the one executor walks tile columns in
// blocks of any size B >= 1 (gather -> coordinate GEMM or per-position
// reduction -> inverse) and must stay BIT-identical to the NCHW reference
// conv2d_winograd — same per-element accumulation chains, only regrouped
// across independent tile columns — at every block size, accumulation
// order, tile edge, ragged shape, layout pairing, batch size, thread
// count and kernel set; the int8 form is pinned against a golden per-tile
// formulation.
// Also pins the planner side: peak-neutral block sizing (block scratch
// never grows the slab high-water mark) and the per-model batch ceiling
// the serving layer clamps assembly to.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <future>
#include <limits>
#include <vector>

#include "common/random.hpp"
#include "nn/forward.hpp"
#include "nn/memory_plan.hpp"
#include "nn/plan.hpp"
#include "quant/int8.hpp"
#include "runtime/clock.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/inference_server.hpp"
#include "tensor/layout.hpp"
#include "tensor/tensor.hpp"
#include "test_support.hpp"
#include "winograd/kernels.hpp"

namespace {

using wino::common::Rng;
using wino::runtime::ManualClock;
using wino::runtime::ThreadPool;
using wino::test::for_each_kernel_set;
using wino::test::hostile_batch;
using wino::tensor::Layout;
using wino::tensor::Tensor4f;
using wino::winograd::AccumulationOrder;
using wino::winograd::conv2d_winograd;
using wino::winograd::conv2d_winograd_layout;
using wino::winograd::conv2d_winograd_layout_into;
using wino::winograd::TileTransformer;
using wino::winograd::TransformedKernels;
using wino::winograd::transforms;
using wino::winograd::WinogradConvOptions;
using wino::winograd::WinogradScratch;

Tensor4f random_tensor(std::size_t n, std::size_t c, std::size_t h,
                       std::size_t w, Rng& rng) {
  Tensor4f t(n, c, h, w);
  rng.fill_uniform(t.flat());
  return t;
}

bool bit_identical(const Tensor4f& a, const Tensor4f& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.size() * sizeof(float)) == 0;
}

/// Scratch for one walk at block size `block`, carved by
/// nn::carve_winograd_scratch over a heap byte buffer — the extents the
/// planned slab hands the executor.
struct CarvedScratch {
  std::vector<std::byte> bytes;
  WinogradScratch s;
};

CarvedScratch carve_scratch(std::size_t channels, const TileTransformer& xf,
                            std::size_t block) {
  const auto n = static_cast<std::size_t>(xf.tile());
  const auto mm = static_cast<std::size_t>(xf.m());
  wino::nn::ByteCarver measure;
  (void)wino::nn::carve_winograd_scratch(measure, channels, n, mm, block);
  CarvedScratch o;
  o.bytes.resize(measure.used());
  wino::nn::ByteCarver carver(o.bytes);
  o.s = wino::nn::carve_winograd_scratch(carver, channels, n, mm, block);
  return o;
}

// -------------------------------------------------------------------------
// Allocating wrapper vs the independent NCHW reference implementation
// -------------------------------------------------------------------------

TEST(FusedPipeline, WrapperBitIdenticalToPerTileReferenceEverywhere) {
  struct Case {
    int m;
    std::size_t h, w;
  };
  // Ragged shapes: every m leaves a clipped right/bottom tile edge.
  const Case cases[] = {{2, 7, 9}, {3, 7, 5}, {4, 9, 7}};
  WinogradConvOptions opt;
  opt.pad = 1;
  Rng rng(4242);
  for (const Case& cs : cases) {
    const TileTransformer xf(transforms(cs.m, 3));
    for (const std::size_t batch : {1u, 3u, 5u}) {
      const Tensor4f input = random_tensor(batch, 3, cs.h, cs.w, rng);
      const Tensor4f kernels = random_tensor(4, 3, 3, 3, rng);
      const TransformedKernels tk(xf, kernels);
      // Independent per-tile implementation: the memcmp anchor.
      const Tensor4f want = conv2d_winograd(input, tk, xf, opt);
      for (const std::size_t threads : {1u, 2u, 7u}) {
        ThreadPool::set_global_threads(threads);
        const Tensor4f got = wino::tensor::unpack(conv2d_winograd_layout(
            wino::tensor::PackedActivation::from_nchw(Tensor4f(input)), tk,
            xf, opt, wino::tensor::LayoutKind::kNCHW, false));
        EXPECT_TRUE(bit_identical(got, want))
            << "m=" << cs.m << " batch=" << batch << " threads=" << threads;
      }
    }
  }
  ThreadPool::set_global_threads(4);
}

// -------------------------------------------------------------------------
// Every block size, both accumulation orders, every layout pairing
// -------------------------------------------------------------------------

Tensor4f relu_of(Tensor4f t) {
  for (float& v : t.flat()) v = v > 0.0F ? v : 0.0F;
  return t;
}

TEST(TileWalk, EveryBlockSizeBitIdenticalToReference) {
  for_each_kernel_set([&] {
    using wino::tensor::PackedActivation;
    struct Case {
      int m;
      std::size_t h, w;
    };
    // 7x9 at m = 2 gives 2 x 20 tile columns, 9x7 at m = 4 gives 2 x 6: the
    // block sizes cover B = 1, blocks with no full register tile, exact
    // register tiles, register tiles plus a tail, ragged final blocks and
    // B larger than the column supply.
    const Case cases[] = {{2, 7, 9}, {4, 9, 7}};
    const std::size_t blocks[] = {1, 2, 3, 7, 8, 9, 16};
    Rng rng(7);
    for (const Case& cs : cases) {
      const TileTransformer xf(transforms(cs.m, 3));
      const auto mm = static_cast<std::size_t>(cs.m);
      const Tensor4f input = random_tensor(2, 3, cs.h, cs.w, rng);
      const Tensor4f kernels = random_tensor(4, 3, 3, 3, rng);
      const TransformedKernels tk(xf, kernels);
      const wino::tensor::Shape4 out_shape{2, 4, cs.h, cs.w};
      for (const AccumulationOrder order :
           {AccumulationOrder::kTransformDomain,
            AccumulationOrder::kPostInverse}) {
        WinogradConvOptions opt;
        opt.pad = 1;
        opt.accumulation = order;
        const Tensor4f want = conv2d_winograd(input, tk, xf, opt);
        const Tensor4f want_relu = relu_of(want);
        for (const bool in_tiled : {false, true}) {
          // A producer tile edge other than m exercises the gather maps.
          const Layout il = in_tiled ? Layout::winograd_tile(input.shape(), 3)
                                     : Layout::nchw(input.shape());
          const PackedActivation in = wino::tensor::pack(input, il);
          for (const bool out_tiled : {false, true}) {
            const Layout ol = out_tiled ? Layout::winograd_tile(out_shape, mm)
                                        : Layout::nchw(out_shape);
            for (const bool relu : {false, true}) {
              for (const std::size_t block : blocks) {
                const CarvedScratch sc = carve_scratch(3, xf, block);
                PackedActivation got{ol,
                                     std::vector<float>(ol.volume(), -1.0F)};
                conv2d_winograd_layout_into(il, in.data, tk, xf, opt, ol,
                                            got.data, relu, sc.s);
                EXPECT_TRUE(bit_identical(wino::tensor::unpack(got),
                                          relu ? want_relu : want))
                    << "m=" << cs.m << " post_inverse="
                    << (order == AccumulationOrder::kPostInverse)
                    << " in_tiled=" << in_tiled << " out_tiled=" << out_tiled
                    << " relu=" << relu << " B=" << block;
              }
            }
          }
        }
      }
    }
  });
}

TEST(TileWalk, RejectsScratchWithoutAColumnOrWithMismatchedBanks) {
  const TileTransformer xf(transforms(2, 3));
  const Tensor4f input(1, 2, 6, 6, 0.5F);
  const Tensor4f kernels(1, 2, 3, 3, 0.25F);
  const TransformedKernels tk(xf, kernels);
  WinogradConvOptions opt;
  opt.pad = 1;
  const Layout il = Layout::nchw(input.shape());
  const Layout ol = Layout::nchw({1, 1, 6, 6});
  std::vector<float> out(ol.volume());
  const CarvedScratch empty = carve_scratch(2, xf, 0);
  EXPECT_THROW(conv2d_winograd_layout_into(il, input.flat(), tk, xf, opt, ol,
                                           out, false, empty.s),
               std::invalid_argument);
  CarvedScratch mixed = carve_scratch(2, xf, 4);
  mixed.s.acc_blk = mixed.s.acc_blk.first(2 * xf.tile() * xf.tile());
  EXPECT_THROW(conv2d_winograd_layout_into(il, input.flat(), tk, xf, opt, ol,
                                           out, false, mixed.s),
               std::invalid_argument);
}

// -------------------------------------------------------------------------
// Int8 Winograd form: every block size vs a golden per-tile walk
// -------------------------------------------------------------------------

std::int8_t golden_quantize(float v, float inv) {
  const float x = v * inv;
  if (std::isnan(x)) return 0;
  const float q = std::nearbyint(x);
  return static_cast<std::int8_t>(std::clamp(q, -127.0F, 127.0F));
}

/// Golden per-tile formulation of quant::conv2d_winograd_int8_into: per
/// tile, fp32 transforms of every channel, one scale per position from the
/// largest finite |U| across channels, nearbyint quantization (NaN to 0,
/// +/-Inf saturating), the int32 channel sum per position, per-position
/// dequantization, fp32 inverse and clipped scatter. The production walk
/// regroups the same per-tile arithmetic into blocks of tile columns.
std::vector<float> golden_winograd_int8(
    const Tensor4f& input, const wino::quant::QuantizedWinogradKernels& qk,
    const TileTransformer& xf, int pad, bool relu) {
  const auto& is = input.shape();
  const auto m = static_cast<std::size_t>(xf.m());
  const auto n = static_cast<std::size_t>(xf.tile());
  const std::size_t nsq = n * n;
  const std::size_t oh = is.h + 2 * static_cast<std::size_t>(pad) - 2;
  const std::size_t ow = is.w + 2 * static_cast<std::size_t>(pad) - 2;
  std::vector<float> d(nsq), u(is.c * nsq), sv(nsq), m_f(nsq), y(m * m);
  std::vector<std::int8_t> uq(is.c * nsq);
  std::vector<float> out(is.n * qk.kernels * oh * ow);
  for (std::size_t img = 0; img < is.n; ++img) {
    for (std::size_t ty = 0; ty * m < oh; ++ty) {
      for (std::size_t tx = 0; tx * m < ow; ++tx) {
        const auto y0 = static_cast<std::ptrdiff_t>(ty * m) - pad;
        const auto x0 = static_cast<std::ptrdiff_t>(tx * m) - pad;
        for (std::size_t c = 0; c < is.c; ++c) {
          for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
              d[i * n + j] =
                  input.padded(img, c, y0 + static_cast<std::ptrdiff_t>(i),
                               x0 + static_cast<std::ptrdiff_t>(j));
            }
          }
          xf.transform_data(d, std::span(u).subspan(c * nsq, nsq));
        }
        for (std::size_t i = 0; i < nsq; ++i) {
          float pos_max = 0.0F;
          for (std::size_t c = 0; c < is.c; ++c) {
            const float a = std::abs(u[c * nsq + i]);
            if (std::isfinite(a)) pos_max = std::max(pos_max, a);
          }
          sv[i] = pos_max / 127.0F;
          const float inv = pos_max > 0.0F ? 127.0F / pos_max : 0.0F;
          for (std::size_t c = 0; c < is.c; ++c) {
            uq[c * nsq + i] = golden_quantize(u[c * nsq + i], inv);
          }
        }
        for (std::size_t k = 0; k < qk.kernels; ++k) {
          for (std::size_t i = 0; i < nsq; ++i) {
            std::int32_t acc = 0;
            for (std::size_t c = 0; c < is.c; ++c) {
              acc += std::int32_t{uq[c * nsq + i]} *
                     std::int32_t{qk.data[(k * is.c + c) * nsq + i]};
            }
            m_f[i] = static_cast<float>(acc) * (qk.scale[k * nsq + i] * sv[i]);
          }
          xf.inverse(m_f, y);
          for (std::size_t i = 0; i < m && ty * m + i < oh; ++i) {
            for (std::size_t j = 0; j < m && tx * m + j < ow; ++j) {
              float v = y[i * m + j];
              if (relu && v < 0.0F) v = 0.0F;
              out[((img * qk.kernels + k) * oh + ty * m + i) * ow + tx * m +
                  j] = v;
            }
          }
        }
      }
    }
  }
  return out;
}

TEST(TileWalk, Int8EveryBlockSizeBitIdenticalToGoldenPerTileWalk) {
  for_each_kernel_set([&] {
    using wino::quant::conv2d_winograd_int8_into;
    using wino::quant::QuantWinogradScratch;
    for (const int m : {2, 4}) {
      const TileTransformer xf(transforms(m, 3));
      const auto n = static_cast<std::size_t>(xf.tile());
      Rng rng(100 + m);
      const Tensor4f input = random_tensor(2, 5, 9, 7, rng);
      const Tensor4f kernels = random_tensor(4, 5, 3, 3, rng);
      const auto qk = wino::quant::quantize_winograd_kernels(xf, kernels);
      const wino::tensor::Tensor4fView view(input.shape(), input.flat());
      // The allocating wrapper runs the same walk at its own block size.
      const std::vector<float> plain = golden_winograd_int8(input, qk, xf, 1,
                                                            false);
      const Tensor4f wrapped = wino::quant::conv2d_winograd_int8(input, qk, xf,
                                                                 1);
      EXPECT_EQ(std::memcmp(wrapped.flat().data(), plain.data(),
                            plain.size() * sizeof(float)),
                0)
          << "m=" << m << " allocating wrapper";
      for (const bool relu : {false, true}) {
        const std::vector<float> want =
            golden_winograd_int8(input, qk, xf, 1, relu);
        for (const std::size_t block : {1u, 2u, 3u, 8u, 16u}) {
          wino::nn::ByteCarver measure;
          (void)wino::nn::carve_quant_winograd_scratch(measure, 5, n, block);
          std::vector<std::byte> bytes(measure.used());
          wino::nn::ByteCarver carver(bytes);
          const QuantWinogradScratch s =
              wino::nn::carve_quant_winograd_scratch(carver, 5, n, block);
          std::vector<float> got(want.size(), -2.0F);
          conv2d_winograd_int8_into(view, qk, xf, 1, 0.0F, relu, got, s);
          EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                want.size() * sizeof(float)),
                    0)
              << "m=" << m << " B=" << block << " relu=" << relu;
        }
      }
    }
  });
}

// -------------------------------------------------------------------------
// Hostile inputs: NaN, +/-Inf and all-zero images through every walk
// -------------------------------------------------------------------------

TEST(HostileInputs, WalkBitIdenticalToReferenceAtEveryBlockSize) {
  for_each_kernel_set([&] {
    Rng rng(31);
    for (const int m : {2, 3, 4}) {
      const TileTransformer xf(transforms(m, 3));
      const auto mm = static_cast<std::size_t>(m);
      const Tensor4f input = hostile_batch(4, 3, 9, 7, rng);
      const Tensor4f kernels = random_tensor(4, 3, 3, 3, rng);
      const TransformedKernels tk(xf, kernels);
      const Layout il = Layout::nchw(input.shape());
      const Layout ol = Layout::nchw({4, 4, 9, 7});
      for (const AccumulationOrder order :
           {AccumulationOrder::kTransformDomain,
            AccumulationOrder::kPostInverse}) {
        WinogradConvOptions opt;
        opt.pad = 1;
        opt.accumulation = order;
        const Tensor4f want = conv2d_winograd(input, tk, xf, opt);
        for (const std::size_t block : {1u, 8u, 16u}) {
          const CarvedScratch sc = carve_scratch(3, xf, block);
          Tensor4f got(4, 4, 9, 7, -1.0F);
          conv2d_winograd_layout_into(il, input.flat(), tk, xf, opt, ol,
                                      got.flat(), false, sc.s);
          EXPECT_TRUE(bit_identical(got, want))
              << "m=" << mm << " post_inverse="
              << (order == AccumulationOrder::kPostInverse) << " B=" << block;
        }
      }
    }
  });
}

TEST(HostileInputs, Int8WalkBitIdenticalToGoldenPerTileWalk) {
  for_each_kernel_set([&] {
    Rng rng(32);
    for (const int m : {2, 4}) {
      const TileTransformer xf(transforms(m, 3));
      const auto n = static_cast<std::size_t>(xf.tile());
      const Tensor4f input = hostile_batch(4, 5, 9, 7, rng);
      const Tensor4f kernels = random_tensor(4, 5, 3, 3, rng);
      const auto qk = wino::quant::quantize_winograd_kernels(xf, kernels);
      const wino::tensor::Tensor4fView view(input.shape(), input.flat());
      const std::vector<float> want = golden_winograd_int8(input, qk, xf, 1,
                                                           true);
      for (const std::size_t block : {1u, 8u, 16u}) {
        wino::nn::ByteCarver measure;
        (void)wino::nn::carve_quant_winograd_scratch(measure, 5, n, block);
        std::vector<std::byte> bytes(measure.used());
        wino::nn::ByteCarver carver(bytes);
        const auto s =
            wino::nn::carve_quant_winograd_scratch(carver, 5, n, block);
        std::vector<float> got(want.size(), -2.0F);
        wino::quant::conv2d_winograd_int8_into(view, qk, xf, 1, 0.0F, true,
                                               got, s);
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(float)),
                  0)
            << "m=" << m << " B=" << block;
      }
    }
  });
}

TEST(HostileInputs, PlannedForwardBitIdenticalToReference) {
  for_each_kernel_set([&] {
    const auto layers = wino::nn::vgg16_d_scaled(14, 16);
    const auto weights = wino::nn::random_weights(layers, 33);
    Rng rng(34);
    // Every algorithm the executor runs, each followed by the pools and
    // the fully connected layer.
    using wino::nn::ConvAlgo;
    for (const auto algo :
         {ConvAlgo::kIm2col, ConvAlgo::kWinograd2, ConvAlgo::kWinograd3,
          ConvAlgo::kWinograd4, ConvAlgo::kInt8Im2col,
          ConvAlgo::kInt8Winograd2, ConvAlgo::kInt8Winograd4}) {
      const wino::nn::ExecutionPlan plan = wino::nn::uniform_plan(layers, algo);
      for (const std::size_t batch : {1u, 8u}) {
        const Tensor4f in = hostile_batch(batch, 3, 16, 16, rng);
        const Tensor4f want = wino::nn::forward_reference(plan, weights, in);
        const Tensor4f got = wino::nn::forward(plan, weights, in);
        EXPECT_TRUE(bit_identical(got, want))
            << wino::nn::to_string(algo) << " batch=" << batch;
      }
    }
  });
}

// -------------------------------------------------------------------------
// Planned forward: fused blocks under the slab, still the reference values
// -------------------------------------------------------------------------

TEST(FusedPipeline, PlannedForwardBitIdenticalToReferenceAcrossSweep) {
  const auto layers = wino::nn::vgg16_d_scaled(14, 16);
  const wino::nn::ExecutionPlan plan =
      wino::nn::uniform_plan(layers, wino::nn::ConvAlgo::kWinograd4);
  ASSERT_FALSE(plan.memory.empty());
  // The tentpole must actually engage: at least one Winograd step runs the
  // fused pipeline out of the planned slab.
  std::size_t fused_steps = 0;
  for (const std::size_t b : plan.memory.step_block_columns) {
    if (b >= 2) ++fused_steps;
  }
  EXPECT_GE(fused_steps, 1u);

  const auto weights = wino::nn::random_weights(layers, 17);
  Rng rng(18);
  for (const std::size_t batch : {1u, 3u, 5u}) {
    Tensor4f in(batch, 3, 16, 16);
    rng.fill_uniform(in.flat());
    const Tensor4f want = wino::nn::forward_reference(plan, weights, in);
    for (const std::size_t threads : {1u, 2u, 7u}) {
      ThreadPool::set_global_threads(threads);
      const Tensor4f got = wino::nn::forward(plan, weights, in);
      EXPECT_TRUE(bit_identical(got, want))
          << "batch=" << batch << " threads=" << threads;
    }
  }
  ThreadPool::set_global_threads(4);
}

TEST(FusedPipeline, PlannerBlockSizingIsPeakNeutral) {
  const auto layers = wino::nn::vgg16_d_scaled(14, 16);
  const wino::nn::ExecutionPlan plan =
      wino::nn::uniform_plan(layers, wino::nn::ConvAlgo::kWinograd4);
  const wino::nn::MemoryPlan unfused =
      wino::nn::build_memory_plan(plan, /*fuse_blocks=*/false);
  const wino::nn::MemoryPlan& fused = plan.memory;
  ASSERT_FALSE(fused.empty());
  for (const std::size_t b : unfused.step_block_columns) {
    EXPECT_EQ(b, 1u);  // sizing disabled: every step stays at B = 1
  }
  // Fused block scratch may never raise the slab high-water mark, at the
  // single-image point or deep into a batch.
  for (const std::size_t images : {1u, 2u, 4u, 8u}) {
    EXPECT_LE(fused.peak_bytes(images), unfused.peak_bytes(images))
        << "images=" << images;
  }
}

// -------------------------------------------------------------------------
// Plan-aware batch ceiling: the working-set math and the serving clamp
// -------------------------------------------------------------------------

/// One 32x32 c=16 k=16 conv: transform-domain working set at m=4 is
/// 32*32*(16+16)*4 * (6/4)^2 = 294912 bytes per image, so the 768 KiB
/// fused cache budget holds exactly two images.
std::vector<wino::nn::LayerSpec> ceiling_model() {
  wino::nn::LayerSpec l;
  l.kind = wino::nn::LayerKind::kConv;
  l.conv.name = "ceiling";
  l.conv.h = 32;
  l.conv.w = 32;
  l.conv.c = 16;
  l.conv.k = 16;
  return {l};
}

TEST(BatchCeiling, MatchesTransformDomainWorkingSetMath) {
  const wino::nn::ExecutionPlan w4 = wino::nn::uniform_plan(
      ceiling_model(), wino::nn::ConvAlgo::kWinograd4);
  EXPECT_EQ(wino::nn::plan_batch_ceiling(w4), 2u);
  EXPECT_EQ(w4.batch_ceiling, 2u);
  // No Winograd layer -> no transform-domain working set -> unlimited (0).
  const wino::nn::ExecutionPlan im2col = wino::nn::uniform_plan(
      ceiling_model(), wino::nn::ConvAlgo::kIm2col);
  EXPECT_EQ(wino::nn::plan_batch_ceiling(im2col), 0u);
  EXPECT_EQ(im2col.batch_ceiling, 0u);
}

TEST(BatchCeiling, ServeClampsAssemblyAndStaysBitIdentical) {
  ManualClock clock;  // frozen: only the ceiling can trigger dispatch
  std::mutex mutex;
  std::vector<std::size_t> batch_sizes;
  wino::serve::ServerConfig cfg;
  cfg.max_batch = 8;  // global cap far above the per-model ceiling
  cfg.clock = &clock;
  cfg.batch_detail_observer =
      [&](wino::serve::ModelId,
          const std::vector<wino::serve::BatchRequestInfo>& info) {
        std::lock_guard lock(mutex);
        batch_sizes.push_back(info.size());
      };
  wino::serve::InferenceServer server(cfg);
  wino::nn::ExecutionPlan plan = wino::nn::uniform_plan(
      ceiling_model(), wino::nn::ConvAlgo::kWinograd4);
  ASSERT_EQ(plan.batch_ceiling, 2u);
  const auto weights = wino::nn::random_weights(ceiling_model(), 5);
  const auto model = server.add_model("ceiling", plan, weights);

  Rng rng(6);
  std::vector<Tensor4f> images;
  std::vector<std::future<Tensor4f>> futures;
  for (std::size_t i = 0; i < 4; ++i) {
    images.push_back(random_tensor(1, 16, 32, 32, rng));
  }
  for (const Tensor4f& img : images) {
    futures.push_back(server.submit(model, img));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    // Each served output equals the direct single-image forward bit for
    // bit, whatever ceiling-capped batch carried it.
    const Tensor4f got = futures[i].get();
    const Tensor4f want = wino::nn::forward(plan, weights, images[i]);
    EXPECT_TRUE(bit_identical(got, want)) << "request " << i;
  }
  std::lock_guard lock(mutex);
  ASSERT_EQ(batch_sizes.size(), 2u);  // 4 requests under ceiling 2
  EXPECT_EQ(batch_sizes[0], 2u);
  EXPECT_EQ(batch_sizes[1], 2u);
}

}  // namespace
