// Tests for the int8 quantized execution path and the planner's quality
// axis: int8 conv correctness against fp32 references, the exact
// bit-identity contracts (SIMD vs scalar, thread counts, planned vs
// reference composition), the analytic error model's ordering, the error
// budget's demotion chain (int8 Winograd -> int8 im2col -> fp32), and the
// quantized serving session. See docs/QUANTIZATION.md for the contract
// under test.
#include "nn/plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "conv/im2col.hpp"
#include "conv/spatial.hpp"
#include "nn/forward.hpp"
#include "quant/int8.hpp"
#include "runtime/igemm.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/inference_server.hpp"
#include "winograd/error_model.hpp"

namespace wino::nn {
namespace {

using common::Rng;
using tensor::Tensor4f;

bool same_bits(const Tensor4f& a, const Tensor4f& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.flat().size() * sizeof(float)) == 0;
}

float rel_max_error(const Tensor4f& got, const Tensor4f& ref) {
  float max_diff = 0;
  float max_ref = 0;
  const auto g = got.flat();
  const auto r = ref.flat();
  for (std::size_t i = 0; i < g.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(g[i] - r[i]));
    max_ref = std::max(max_ref, std::abs(r[i]));
  }
  return max_ref > 0 ? max_diff / max_ref : max_diff;
}

ConvLayerSpec conv_spec(std::size_t hw, std::size_t c, std::size_t k) {
  ConvLayerSpec l;
  l.h = hw;
  l.w = hw;
  l.c = c;
  l.k = k;
  l.r = 3;
  l.pad = 1;
  return l;
}

TEST(Int8Algos, PredicatesAndNames) {
  for (const ConvAlgo algo : {ConvAlgo::kInt8Im2col, ConvAlgo::kInt8Winograd2,
                              ConvAlgo::kInt8Winograd4}) {
    EXPECT_TRUE(is_int8(algo));
    EXPECT_EQ(winograd_m(algo), 0);  // never participates in tile handoffs
    EXPECT_EQ(parse_conv_algo(to_string(algo)), algo);
  }
  EXPECT_FALSE(is_int8(ConvAlgo::kIm2col));
  EXPECT_FALSE(is_int8(ConvAlgo::kWinograd4));
  EXPECT_EQ(int8_winograd_m(ConvAlgo::kInt8Im2col), 0);
  EXPECT_EQ(int8_winograd_m(ConvAlgo::kInt8Winograd2), 2);
  EXPECT_EQ(int8_winograd_m(ConvAlgo::kInt8Winograd4), 4);
  EXPECT_EQ(parse_conv_algo("int8"), ConvAlgo::kInt8Im2col);
  EXPECT_EQ(parse_conv_algo("i8w2"), ConvAlgo::kInt8Winograd2);
  EXPECT_EQ(parse_conv_algo("i8w4"), ConvAlgo::kInt8Winograd4);
}

TEST(Int8Conv, Im2colTracksFp32Reference) {
  Rng rng(101);
  Tensor4f input(2, 5, 9, 7);  // ragged extents, multi-image
  Tensor4f kernels(4, 5, 3, 3);
  rng.fill_uniform(input.flat(), -1.0F, 1.0F);
  rng.fill_normal(kernels.flat(), 0.0F, 0.2F);
  const Tensor4f ref =
      conv::conv2d_spatial(input, kernels, {.pad = 1, .stride = 1});
  const Tensor4f got = quant::conv2d_im2col_int8(input, kernels, /*pad=*/1);
  // ~1% of the output range is the expected int8 grid error for
  // uniform-ish inputs; 5% is a generous ceiling that still catches any
  // scale/transpose/dequant bug (those produce O(100%) errors).
  EXPECT_LE(rel_max_error(got, ref), 0.05F);
}

TEST(Int8Conv, WinogradFormsStayUnderModelPrediction) {
  // The numerics contract: predict_layer_rel_error upper-bounds each int8
  // Winograd form's observed error. F(2x2, 3x3) is also absolutely tight
  // (~1% here); F(4x4, 3x3) is genuinely coarse (kappa_1d = 200 prices it
  // near-unusable, and it is) — the planner's budget gate, not a tighter
  // kernel, is what keeps it out of real plans.
  Rng rng(103);
  Tensor4f input(1, 4, 7, 9);  // ragged tiles for both m
  Tensor4f kernels(3, 4, 3, 3);
  rng.fill_uniform(input.flat(), -1.0F, 1.0F);
  rng.fill_normal(kernels.flat(), 0.0F, 0.2F);
  const Tensor4f ref =
      conv::conv2d_spatial(input, kernels, {.pad = 1, .stride = 1});
  LayerActivationStats stats;
  double sq = 0;
  for (const float v : input.flat()) {
    stats.max_abs = std::max(stats.max_abs, static_cast<double>(std::abs(v)));
    sq += static_cast<double>(v) * v;
  }
  stats.rms = std::sqrt(sq / static_cast<double>(input.flat().size()));
  ConvLayerSpec spec = conv_spec(7, 4, 3);
  spec.w = 9;
  for (const int m : {2, 4}) {
    const Tensor4f got =
        quant::conv2d_winograd_int8(input, kernels, m, /*pad=*/1);
    const ConvAlgo algo =
        m == 2 ? ConvAlgo::kInt8Winograd2 : ConvAlgo::kInt8Winograd4;
    EXPECT_LE(rel_max_error(got, ref),
              static_cast<float>(predict_layer_rel_error(spec, algo, &stats)))
        << "m=" << m;
  }
  EXPECT_LE(rel_max_error(
                quant::conv2d_winograd_int8(input, kernels, 2, /*pad=*/1),
                ref),
            0.05F);
}

TEST(Int8Conv, StaticScaleMatchesDynamicForSingleImage) {
  // With one image, the dynamic path derives exactly max|x| / 127 — so
  // passing that same value as the static calibration scale must be
  // bit-identical. Pins the act_scale plumbing end to end.
  Rng rng(107);
  Tensor4f input(1, 3, 8, 8);
  Tensor4f kernels(2, 3, 3, 3);
  rng.fill_uniform(input.flat(), -1.0F, 1.0F);
  rng.fill_normal(kernels.flat(), 0.0F, 0.2F);
  float max_abs = 0;
  for (const float v : input.flat()) max_abs = std::max(max_abs, std::abs(v));
  const float scale = max_abs / 127.0F;
  for (const ConvAlgo algo : {ConvAlgo::kInt8Im2col, ConvAlgo::kInt8Winograd2,
                              ConvAlgo::kInt8Winograd4}) {
    const Tensor4f dynamic = run_conv(algo, input, kernels, 1);
    const Tensor4f fixed = run_conv(algo, input, kernels, 1, scale);
    EXPECT_TRUE(same_bits(dynamic, fixed)) << to_string(algo);
  }
}

TEST(Int8Conv, BitIdenticalAcrossThreadCounts) {
  Rng rng(109);
  Tensor4f input(3, 6, 12, 12);
  Tensor4f kernels(5, 6, 3, 3);
  rng.fill_uniform(input.flat(), -1.0F, 1.0F);
  rng.fill_normal(kernels.flat(), 0.0F, 0.2F);
  for (const ConvAlgo algo : {ConvAlgo::kInt8Im2col, ConvAlgo::kInt8Winograd2,
                              ConvAlgo::kInt8Winograd4}) {
    runtime::ThreadPool::set_global_threads(1);
    const Tensor4f base = run_conv(algo, input, kernels, 1);
    for (const std::size_t threads : {2u, 7u}) {
      runtime::ThreadPool::set_global_threads(threads);
      EXPECT_TRUE(same_bits(run_conv(algo, input, kernels, 1), base))
          << to_string(algo) << " threads=" << threads;
    }
  }
  runtime::ThreadPool::set_global_threads(
      std::max(1u, std::thread::hardware_concurrency()));
}

// ---------------------------------------------------------------------------
// Golden formulation of the int8 im2col form: fp32 im2col lowering, a
// transpose that quantizes every patch copy with std::nearbyint, the
// widening reference GEMM, and the per-channel dequantizing store. The
// production core quantizes each image once and gathers int8 patches; the
// two must agree byte for byte on finite inputs.
// ---------------------------------------------------------------------------

std::int8_t golden_quantize(float v, float inv) {
  const float q = std::nearbyint(v * inv);
  return static_cast<std::int8_t>(std::clamp(q, -127.0F, 127.0F));
}

float golden_max_abs(std::span<const float> values) {
  float worst = 0.0F;
  for (const float v : values) worst = std::max(worst, std::abs(v));
  return worst;
}

quant::QuantizedFilter golden_quantize_filters(const Tensor4f& kernels) {
  const auto& ks = kernels.shape();
  quant::QuantizedFilter qf;
  qf.kernels = ks.n;
  qf.channels = ks.c;
  qf.r = ks.h;
  const std::size_t inner = qf.inner();
  qf.data.resize(qf.kernels * inner);
  qf.scale.resize(qf.kernels);
  for (std::size_t k = 0; k < qf.kernels; ++k) {
    const auto row = kernels.flat().subspan(k * inner, inner);
    qf.scale[k] = golden_max_abs(row) / 127.0F;
    const float inv = qf.scale[k] > 0.0F ? 1.0F / qf.scale[k] : 0.0F;
    for (std::size_t i = 0; i < inner; ++i) {
      qf.data[k * inner + i] = golden_quantize(row[i], inv);
    }
  }
  return qf;
}

std::vector<float> golden_im2col_int8(const Tensor4f& input,
                                      const quant::QuantizedFilter& qf,
                                      int pad, float act_scale,
                                      bool fuse_relu) {
  const auto& is = input.shape();
  const std::size_t r = qf.r;
  const std::size_t oh = is.h + 2 * static_cast<std::size_t>(pad) - r + 1;
  const std::size_t ow = is.w + 2 * static_cast<std::size_t>(pad) - r + 1;
  const std::size_t cols = oh * ow;
  const std::size_t inner = qf.inner();
  std::vector<float> panel(inner * cols);
  std::vector<std::int8_t> qpanel(cols * inner);
  std::vector<std::int32_t> acc(qf.kernels * cols);
  std::vector<float> out(is.n * qf.kernels * cols);
  const std::size_t volume = is.c * is.h * is.w;
  for (std::size_t img = 0; img < is.n; ++img) {
    conv::im2col(input, img, r, pad, /*stride=*/1, panel);
    const float a_scale =
        act_scale > 0.0F
            ? act_scale
            : golden_max_abs(input.flat().subspan(img * volume, volume)) /
                  127.0F;
    const float inv = a_scale > 0.0F ? 1.0F / a_scale : 0.0F;
    for (std::size_t j = 0; j < cols; ++j) {
      for (std::size_t kk = 0; kk < inner; ++kk) {
        qpanel[j * inner + kk] = golden_quantize(panel[kk * cols + j], inv);
      }
    }
    runtime::igemm_nt_ref(qf.kernels, cols, inner, qf.data.data(), inner,
                          qpanel.data(), inner, acc.data(), cols);
    for (std::size_t k = 0; k < qf.kernels; ++k) {
      const float deq = qf.scale[k] * a_scale;
      for (std::size_t j = 0; j < cols; ++j) {
        const float v = static_cast<float>(acc[k * cols + j]) * deq;
        out[(img * qf.kernels + k) * cols + j] =
            fuse_relu ? (v > 0.0F ? v : 0.0F) : v;
      }
    }
  }
  return out;
}

TEST(Int8Golden, Im2colBitIdenticalToFp32LoweringFormulation) {
  Rng rng(2024);
  const std::size_t extents[] = {1, 2, 3, 5, 7, 9, 11, 13};
  std::size_t checked = 0;
  while (checked < 200) {
    const std::size_t c = static_cast<std::size_t>(rng.uniform_int(1, 64));
    const std::size_t hw = extents[rng.uniform_int(0, 7)];
    const int pad = static_cast<int>(rng.uniform_int(0, 2));
    const std::size_t r = static_cast<std::size_t>(2 * rng.uniform_int(0, 2) + 1);
    if (hw + 2 * static_cast<std::size_t>(pad) < r) continue;
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 2));
    const std::size_t kcount = static_cast<std::size_t>(rng.uniform_int(1, 9));
    Tensor4f input(n, c, hw, hw);
    Tensor4f kernels(kcount, c, r, r);
    rng.fill_uniform(input.flat(), -2.0F, 2.0F);
    rng.fill_normal(kernels.flat(), 0.0F, 0.3F);
    const quant::QuantizedFilter qf = quant::quantize_filters(kernels);
    const quant::QuantizedFilter gf = golden_quantize_filters(kernels);
    ASSERT_EQ(qf.data, gf.data);
    ASSERT_EQ(0, std::memcmp(qf.scale.data(), gf.scale.data(),
                             qf.scale.size() * sizeof(float)));

    const std::size_t hp = hw + 2 * static_cast<std::size_t>(pad);
    const std::size_t cols = (hp - r + 1) * (hp - r + 1);
    std::vector<std::int8_t> image(c * hp * hp);
    std::vector<std::int8_t> qpanel(cols * qf.inner());
    std::vector<std::int32_t> acc(kcount * cols);
    std::vector<float> got(n * kcount * cols);
    // Static scale below the data's range so the clamp saturates too.
    for (const float act_scale : {0.0F, 1.5F / 127.0F}) {
      for (const bool relu : {false, true}) {
        quant::conv2d_im2col_int8_into(
            tensor::Tensor4fView(input.shape(), input.flat()), qf, pad,
            act_scale, relu, got,
            quant::QuantIm2colScratch{image, qpanel, acc});
        const std::vector<float> want =
            golden_im2col_int8(input, gf, pad, act_scale, relu);
        ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                 want.size() * sizeof(float)))
            << "C=" << c << " HW=" << hw << " pad=" << pad << " r=" << r
            << " n=" << n << " K=" << kcount << " scale=" << act_scale
            << " relu=" << relu;
      }
    }
    ++checked;
  }
}

TEST(Int8Golden, QuantizerMatchesNearbyintClampEverywhere) {
  std::vector<float> values;
  for (int h = -257; h <= 257; ++h) values.push_back(0.5F * static_cast<float>(h));
  const float tiny = std::numeric_limits<float>::denorm_min();
  const float fmin = std::numeric_limits<float>::min();
  for (const float v : {tiny, -tiny, fmin / 2, -fmin / 2, fmin, -fmin, 1e30F,
                        -1e30F, 0.0F, -0.0F}) {
    values.push_back(v);
  }
  for (const float inv : {1.0F, 0.5F, 3.0F, 1.0F / 3.0F, 1e30F, 0.0F}) {
    for (const float v : values) {
      ASSERT_EQ(quant::quantize_symmetric(v, inv), golden_quantize(v, inv))
          << "v=" << v << " inv=" << inv;
    }
    // The vector span helper agrees with the scalar form lane for lane,
    // through its 16-wide body and its scalar tail.
    std::vector<std::int8_t> span_q(values.size());
    quant::quantize_span(values, inv, span_q);
    for (std::size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(span_q[i], golden_quantize(values[i], inv))
          << "v=" << values[i] << " inv=" << inv;
    }
  }
}

TEST(Int8Hostile, NonFiniteValuesQuantizeToDocumentedCodes) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> values = {inf, -inf, nan, -nan, inf, 1.0F, nan};
  for (const float inv : {1.0F, 0.0F}) {
    std::vector<std::int8_t> q(values.size());
    quant::quantize_span(values, inv, q);
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(q[i], quant::quantize_symmetric(values[i], inv));
    }
  }
  EXPECT_EQ(quant::quantize_symmetric(inf, 1.0F), 127);
  EXPECT_EQ(quant::quantize_symmetric(-inf, 1.0F), -127);
  EXPECT_EQ(quant::quantize_symmetric(nan, 1.0F), 0);
  EXPECT_EQ(quant::quantize_symmetric(inf, 0.0F), 0);  // 0 * Inf is NaN
  // Scales come from the finite maximum.
  EXPECT_EQ(quant::symmetric_scale(std::vector<float>{-2.0F, inf, nan, -inf}),
            2.0F / 127.0F);
}

bool all_finite(const Tensor4f& t) {
  return std::all_of(t.flat().begin(), t.flat().end(),
                     [](float v) { return std::isfinite(v); });
}

// One +Inf pixel under the dynamic activation scale used to make the scale
// Inf, its inverse 0, and every output 0 * Inf = NaN. The scale now comes
// from the finite maximum M, the Inf pixel saturates to 127 exactly as M
// does, so the output equals the one with the Inf replaced by M.
TEST(Int8Hostile, InfPixelLeavesIm2colOutputFinite) {
  Rng rng(211);
  Tensor4f input(1, 2, 5, 5);
  Tensor4f kernels(3, 2, 3, 3);
  rng.fill_uniform(input.flat(), -1.0F, 1.0F);
  rng.fill_normal(kernels.flat(), 0.0F, 0.3F);
  Tensor4f clamped = input;
  float max_abs = 0.0F;
  for (const float v : input.flat()) max_abs = std::max(max_abs, std::abs(v));
  input(0, 1, 2, 3) = std::numeric_limits<float>::infinity();
  clamped(0, 1, 2, 3) = max_abs;
  const Tensor4f got = quant::conv2d_im2col_int8(input, kernels, /*pad=*/1);
  EXPECT_TRUE(all_finite(got));
  EXPECT_TRUE(same_bits(got, quant::conv2d_im2col_int8(clamped, kernels, 1)));
}

// The int8 Winograd form calibrates each tile position from its channels'
// transformed values; an Inf there zeroed the position and turned the
// tile's outputs NaN. Tiles that never read the Inf pixel must not move.
TEST(Int8Hostile, InfPixelLeavesWinogradOutputFinite) {
  Rng rng(223);
  Tensor4f input(1, 2, 9, 9);
  Tensor4f kernels(3, 2, 3, 3);
  rng.fill_uniform(input.flat(), -1.0F, 1.0F);
  rng.fill_normal(kernels.flat(), 0.0F, 0.3F);
  const Tensor4f clean = quant::conv2d_winograd_int8(input, kernels, 2, 1);
  input(0, 0, 0, 0) = std::numeric_limits<float>::infinity();
  const Tensor4f got = quant::conv2d_winograd_int8(input, kernels, 2, 1);
  EXPECT_TRUE(all_finite(got));
  // F(2x2) tiles at pad 1 read input rows/cols [2t - 1, 2t + 2]: only
  // tile (0, 0), which writes outputs [0, 2) x [0, 2), reads pixel (0, 0).
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t y = 0; y < 9; ++y) {
      for (std::size_t x = 0; x < 9; ++x) {
        if (y < 2 && x < 2) continue;
        EXPECT_EQ(got(0, k, y, x), clean(0, k, y, x))
            << "k=" << k << " y=" << y << " x=" << x;
      }
    }
  }
}

TEST(ErrorModel, AmplificationGrowsWithTileSize) {
  const winograd::ErrorModel e2 = winograd::error_model(2, 3);
  const winograd::ErrorModel e4 = winograd::error_model(4, 3);
  EXPECT_GT(e4.kappa_2d, e2.kappa_2d);
  EXPECT_GT(e2.kappa_2d, 1.0);
  // The estimate is linear in the input magnitude.
  EXPECT_DOUBLE_EQ(e4.fp32_error_estimate(2.0),
                   2.0 * e4.fp32_error_estimate(1.0));
}

TEST(ErrorModel, PredictedLayerErrorOrdering) {
  const ConvLayerSpec layer = conv_spec(16, 8, 8);
  const LayerActivationStats stats{.max_abs = 2.0, .rms = 0.5};
  const double fp32_direct =
      predict_layer_rel_error(layer, ConvAlgo::kIm2col, &stats);
  const double fp32_w4 =
      predict_layer_rel_error(layer, ConvAlgo::kWinograd4, &stats);
  const double i8_im2col =
      predict_layer_rel_error(layer, ConvAlgo::kInt8Im2col, &stats);
  const double i8_w2 =
      predict_layer_rel_error(layer, ConvAlgo::kInt8Winograd2, &stats);
  const double i8_w4 =
      predict_layer_rel_error(layer, ConvAlgo::kInt8Winograd4, &stats);
  // fp32 rounding sits orders of magnitude below the int8 grid; within
  // int8, transform-domain quantization costs more as m grows.
  EXPECT_LT(fp32_direct, fp32_w4);
  EXPECT_LT(fp32_w4, i8_im2col);
  EXPECT_LT(i8_im2col, i8_w2);
  EXPECT_LT(i8_w2, i8_w4);
  // fp32 predictions work without stats; int8 without calibration is
  // unbounded so a budgeted planner can never pick it blind.
  EXPECT_GT(predict_layer_rel_error(layer, ConvAlgo::kWinograd2, nullptr),
            0.0);
  EXPECT_TRUE(std::isinf(
      predict_layer_rel_error(layer, ConvAlgo::kInt8Im2col, nullptr)));
}

TEST(Planner, CalibrationRecordsPerConvLayerStats) {
  const auto layers = vgg16_d_scaled(28, 16);
  const WeightBank weights = random_weights(layers, 9);
  std::size_t conv_count = 0;
  for (const LayerSpec& l : layers) {
    conv_count += l.kind == LayerKind::kConv ? 1 : 0;
  }
  Rng rng(11);
  Tensor4f sample(2, 3, 8, 8);
  rng.fill_uniform(sample.flat(), -1.0F, 1.0F);
  const QuantCalibration cal = calibrate_activations(layers, weights, sample);
  ASSERT_EQ(cal.conv_inputs.size(), conv_count);
  for (std::size_t i = 0; i < cal.conv_inputs.size(); ++i) {
    EXPECT_GT(cal.conv_inputs[i].max_abs, 0.0) << "conv " << i;
    EXPECT_GT(cal.conv_inputs[i].rms, 0.0) << "conv " << i;
    EXPECT_GE(cal.conv_inputs[i].max_abs, cal.conv_inputs[i].rms);
  }
}

TEST(Planner, CalibrationSkipsNonFiniteSamples) {
  std::vector<LayerSpec> layers(2);
  layers[0].kind = LayerKind::kConv;
  layers[0].conv = conv_spec(8, 3, 8);
  layers[1].kind = LayerKind::kConv;
  layers[1].conv = conv_spec(8, 8, 8);
  const WeightBank weights = random_weights(layers, 21);
  Rng rng(22);
  Tensor4f sample(1, 3, 8, 8);
  rng.fill_uniform(sample.flat(), -1.0F, 1.0F);
  sample(0, 1, 2, 3) = std::numeric_limits<float>::infinity();
  sample(0, 2, 5, 6) = std::numeric_limits<float>::quiet_NaN();

  // The first layer's stats are exactly those of the finite values.
  double max_abs = 0;
  double sum_sq = 0;
  std::size_t finite = 0;
  for (const float v : sample.flat()) {
    if (!std::isfinite(v)) continue;
    max_abs = std::max(max_abs, std::abs(static_cast<double>(v)));
    sum_sq += static_cast<double>(v) * static_cast<double>(v);
    ++finite;
  }
  const QuantCalibration cal = calibrate_activations(layers, weights, sample);
  ASSERT_EQ(cal.conv_inputs.size(), 2u);
  EXPECT_EQ(cal.conv_inputs[0].max_abs, max_abs);
  EXPECT_EQ(cal.conv_inputs[0].rms,
            std::sqrt(sum_sq / static_cast<double>(finite)));
  // Downstream layers see the Inf spread by the convolution; their stats
  // stay finite too.
  for (const LayerActivationStats& st : cal.conv_inputs) {
    EXPECT_TRUE(std::isfinite(st.max_abs));
    EXPECT_TRUE(std::isfinite(st.rms));
    EXPECT_GT(st.max_abs, 0.0);
  }

  // The planner then attaches a finite static scale and prices int8.
  PlannerOptions opts;
  opts.calibration = default_calibration();
  opts.quant = cal;
  opts.candidates = {ConvAlgo::kInt8Im2col};
  opts.constraints.max_rel_error = 1.0;
  const ExecutionPlan plan = plan_execution(layers, opts);
  for (const LayerPlan& step : plan.steps) {
    EXPECT_TRUE(std::isfinite(step.act_scale));
    EXPECT_GT(step.act_scale, 0.0F);
  }
  EXPECT_TRUE(std::isfinite(plan.predicted_max_rel_error));
}

TEST(Planner, ErrorBudgetDemotionChain) {
  // One conv layer, analytic scoring, candidates spanning the precision
  // ladder. As the budget tightens through the predicted-error midpoints
  // the planner demotes: int8 Winograd -> int8 im2col -> fp32 — and
  // throws when even fp32 cannot meet it.
  const ConvLayerSpec conv = conv_spec(16, 8, 8);
  std::vector<LayerSpec> layers(1);
  layers[0].kind = LayerKind::kConv;
  layers[0].conv = conv;

  const LayerActivationStats stats{.max_abs = 2.0, .rms = 0.5};
  PlannerOptions opts;
  opts.calibration = default_calibration();
  opts.quant = QuantCalibration{{stats}};
  opts.candidates = {ConvAlgo::kInt8Winograd4, ConvAlgo::kInt8Winograd2,
                     ConvAlgo::kInt8Im2col, ConvAlgo::kIm2col};

  const double e_fp32 = predict_layer_rel_error(conv, ConvAlgo::kIm2col,
                                                &stats);
  const double e_i8 =
      predict_layer_rel_error(conv, ConvAlgo::kInt8Im2col, &stats);
  const double e_w2 =
      predict_layer_rel_error(conv, ConvAlgo::kInt8Winograd2, &stats);
  const double e_w4 =
      predict_layer_rel_error(conv, ConvAlgo::kInt8Winograd4, &stats);
  ASSERT_LT(e_fp32, e_i8);
  ASSERT_LT(e_i8, e_w2);
  ASSERT_LT(e_w2, e_w4);

  // Budget above every candidate: int8 wins on (analytic) speed.
  opts.constraints.max_rel_error = e_w4 * 1.01;
  ExecutionPlan plan = plan_execution(layers, opts);
  EXPECT_TRUE(is_int8(plan.steps[0].algo));
  EXPECT_EQ(plan.int8_layers, 1u);
  EXPECT_LE(plan.predicted_max_rel_error, opts.constraints.max_rel_error);
  EXPECT_GT(plan.predicted_max_rel_error, 0.0);
  // The chosen int8 layer carries the calibration's static scale.
  EXPECT_FLOAT_EQ(plan.steps[0].act_scale,
                  static_cast<float>(stats.max_abs / 127.0));

  // Between int8-W2 and int8-W4: F(4,3) is out.
  opts.constraints.max_rel_error = (e_w2 + e_w4) / 2;
  plan = plan_execution(layers, opts);
  EXPECT_NE(plan.steps[0].algo, ConvAlgo::kInt8Winograd4);
  EXPECT_TRUE(is_int8(plan.steps[0].algo));

  // Between int8-im2col and int8-W2: only the spatial-domain int8 form
  // survives the gate, and it beats fp32 im2col on speed.
  opts.constraints.max_rel_error = (e_i8 + e_w2) / 2;
  plan = plan_execution(layers, opts);
  EXPECT_EQ(plan.steps[0].algo, ConvAlgo::kInt8Im2col);

  // Between fp32 and int8: every int8 form is out; the plan goes fp32.
  opts.constraints.max_rel_error = (e_fp32 + e_i8) / 2;
  plan = plan_execution(layers, opts);
  EXPECT_EQ(plan.steps[0].algo, ConvAlgo::kIm2col);
  EXPECT_EQ(plan.int8_layers, 0u);

  // Below even fp32's rounding floor: nothing fits.
  opts.constraints.max_rel_error = 1e-12;
  EXPECT_THROW(plan_execution(layers, opts), std::invalid_argument);
}

TEST(Planner, BudgetWithoutCalibrationNeverPicksInt8) {
  const auto layers = vgg16_d_scaled(28, 16);
  PlannerOptions opts;
  opts.calibration = default_calibration();
  opts.candidates = quantized_candidates();
  opts.candidates.push_back(ConvAlgo::kIm2col);
  opts.constraints.max_rel_error = 0.5;  // generous — but int8 is unproven
  const ExecutionPlan plan = plan_execution(layers, opts);
  EXPECT_EQ(plan.int8_layers, 0u);
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (layers[i].kind != LayerKind::kConv) continue;
    EXPECT_EQ(plan.steps[i].algo, ConvAlgo::kIm2col);
  }
}

TEST(Planner, UniformInt8PlanKeepsNchwBoundariesAndFusesRelu) {
  const auto layers = vgg16_d_scaled(28, 16);
  const ExecutionPlan plan = uniform_plan(layers, ConvAlgo::kInt8Im2col);
  std::size_t conv_count = 0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    EXPECT_EQ(plan.steps[i].output_kind, tensor::LayoutKind::kNCHW);
    if (layers[i].kind == LayerKind::kConv) {
      EXPECT_TRUE(plan.steps[i].fused_relu);
      ++conv_count;
    }
  }
  EXPECT_EQ(plan.int8_layers, conv_count);
  EXPECT_EQ(plan.nchw_boundaries, plan.boundaries);
}

// The tentpole acceptance pin: a quantized mixed-precision plan executes
// bit-identically to the per-layer reference composition at every batch
// size and thread count, and its end-to-end error against the all-fp32
// network stays within the planner's budget.
TEST(ForwardPlan, QuantizedPlanBitIdenticalAndWithinBudget) {
  const auto layers = vgg16_d_scaled(14, 16);
  const WeightBank weights = random_weights(layers, 55);
  Rng rng(57);
  Tensor4f sample(2, 3, 16, 16);
  rng.fill_uniform(sample.flat(), -1.0F, 1.0F);

  PlannerOptions opts;
  opts.calibration = default_calibration();
  opts.quant = calibrate_activations(layers, weights, sample);
  opts.constraints.max_rel_error = 0.1;
  opts.candidates = {ConvAlgo::kWinograd2, ConvAlgo::kWinograd4,
                     ConvAlgo::kIm2col};
  for (const ConvAlgo algo : quantized_candidates()) {
    opts.candidates.push_back(algo);
  }
  const ExecutionPlan plan = plan_execution(layers, opts);
  EXPECT_GT(plan.int8_layers, 0u);
  EXPECT_LE(plan.predicted_max_rel_error, 0.1);

  for (const std::size_t batch : {1u, 3u}) {
    Tensor4f input(batch, 3, 16, 16);
    rng.fill_uniform(input.flat(), -1.0F, 1.0F);
    const Tensor4f reference = forward_reference(plan, weights, input);
    for (const std::size_t threads : {1u, 2u, 7u}) {
      runtime::ThreadPool::set_global_threads(threads);
      ASSERT_TRUE(same_bits(forward(plan, weights, input), reference))
          << "batch=" << batch << " threads=" << threads;
    }
    // End-to-end accuracy: the quantized network against the all-fp32 one.
    const Tensor4f fp32 =
        forward(layers, weights, input, ConvAlgo::kIm2col);
    EXPECT_LE(rel_max_error(reference, fp32),
              static_cast<float>(opts.constraints.max_rel_error))
        << "batch=" << batch;
  }
  runtime::ThreadPool::set_global_threads(
      std::max(1u, std::thread::hardware_concurrency()));
}

TEST(Serve, QuantizedSessionServesBitIdenticalResults) {
  const auto layers = vgg16_d_scaled(14, 16);
  WeightBank weights = random_weights(layers, 63);
  Rng rng(65);
  Tensor4f sample(1, 3, 16, 16);
  rng.fill_uniform(sample.flat(), -1.0F, 1.0F);

  serve::ServerConfig cfg;
  cfg.max_batch = 4;
  serve::InferenceServer server(cfg);
  PlannerOptions opts;
  opts.calibration = default_calibration();  // deterministic registration
  const auto id = server.add_model_quantized(
      "quantized", layers, weights, sample, /*max_rel_error=*/0.1, opts);
  EXPECT_GT(server.model_plan(id).int8_layers, 0u);

  std::vector<Tensor4f> images;
  for (int i = 0; i < 5; ++i) {
    Tensor4f img(1, 3, 16, 16);
    rng.fill_uniform(img.flat(), -1.0F, 1.0F);
    images.push_back(std::move(img));
  }
  std::vector<std::future<Tensor4f>> futures;
  futures.reserve(images.size());
  for (auto& img : images) futures.push_back(server.submit(id, img));
  for (std::size_t i = 0; i < images.size(); ++i) {
    const Tensor4f served = futures[i].get();
    const Tensor4f direct =
        forward(server.model_plan(id), server.model_weights(id), images[i]);
    EXPECT_TRUE(same_bits(served, direct)) << "image " << i;
  }
  server.shutdown();
}

}  // namespace
}  // namespace wino::nn
