#include "winograd/kernels.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "common/random.hpp"
#include "conv/spatial.hpp"

namespace wino::winograd {
namespace {

using common::Rng;
using conv::conv2d_spatial;
using tensor::Tensor4f;

Tensor4f random_tensor(std::size_t n, std::size_t c, std::size_t h,
                       std::size_t w, Rng& rng) {
  Tensor4f t(n, c, h, w);
  rng.fill_uniform(t.flat());
  return t;
}

// Error tolerance scaled to data magnitude; higher-order transforms have
// larger constants and thus larger float error.
float tol_for(int m) { return m <= 4 ? 2e-4F : 5e-3F; }

TEST(TileTransformer, OneDMatchesDirectCorrelation) {
  Rng rng;
  for (int m = 2; m <= 7; ++m) {
    const TileTransformer xf(transforms(m, 3));
    const auto n = static_cast<std::size_t>(xf.tile());
    std::vector<float> d(n);
    std::vector<float> g(3);
    std::vector<float> y(static_cast<std::size_t>(m));
    rng.fill_uniform(d);
    rng.fill_uniform(g);
    xf.convolve_1d(d, g, y);
    for (std::size_t k = 0; k < y.size(); ++k) {
      float want = 0.0F;
      for (std::size_t j = 0; j < 3; ++j) want += g[j] * d[k + j];
      EXPECT_NEAR(y[k], want, tol_for(m)) << "m=" << m << " k=" << k;
    }
  }
}

TEST(TileTransformer, TileConvolutionMatchesSpatialSingleTile) {
  Rng rng;
  for (int m = 2; m <= 5; ++m) {
    const TileTransformer xf(transforms(m, 3));
    const auto n = static_cast<std::size_t>(xf.tile());
    const auto mm = static_cast<std::size_t>(m);
    std::vector<float> d(n * n);
    std::vector<float> g(9);
    std::vector<float> y(mm * mm);
    rng.fill_uniform(d);
    rng.fill_uniform(g);
    xf.convolve_tile(d, g, y);
    for (std::size_t oy = 0; oy < mm; ++oy) {
      for (std::size_t ox = 0; ox < mm; ++ox) {
        float want = 0.0F;
        for (std::size_t u = 0; u < 3; ++u) {
          for (std::size_t v = 0; v < 3; ++v) {
            want += d[(oy + u) * n + (ox + v)] * g[u * 3 + v];
          }
        }
        EXPECT_NEAR(y[oy * mm + ox], want, tol_for(m)) << "m=" << m;
      }
    }
  }
}

TEST(TileTransformer, FilterTransformIdentityKernel) {
  // A centre-tap delta kernel convolved with anything returns the centre
  // crop; checks transform_filter and inverse wiring end to end.
  const TileTransformer xf(transforms(2, 3));
  std::vector<float> g(9, 0.0F);
  g[4] = 1.0F;  // centre tap
  std::vector<float> d(16);
  for (std::size_t i = 0; i < d.size(); ++i) d[i] = static_cast<float>(i);
  std::vector<float> y(4);
  xf.convolve_tile(d, g, y);
  EXPECT_NEAR(y[0], d[1 * 4 + 1], 1e-4F);
  EXPECT_NEAR(y[1], d[1 * 4 + 2], 1e-4F);
  EXPECT_NEAR(y[2], d[2 * 4 + 1], 1e-4F);
  EXPECT_NEAR(y[3], d[2 * 4 + 2], 1e-4F);
}

struct LayerCase {
  int m;
  std::size_t h, w, c, k;
  int pad;
};

class WinogradLayerConv : public ::testing::TestWithParam<LayerCase> {};

TEST_P(WinogradLayerConv, MatchesSpatialConvolution) {
  const auto p = GetParam();
  Rng rng(p.m * 1000 + p.h);
  const Tensor4f input = random_tensor(1, p.c, p.h, p.w, rng);
  const Tensor4f kernels = random_tensor(p.k, p.c, 3, 3, rng);

  const Tensor4f ref =
      conv2d_spatial(input, kernels, {.pad = p.pad, .stride = 1});
  WinogradConvOptions opt;
  opt.pad = p.pad;
  const Tensor4f fast = conv2d_winograd(input, kernels, p.m, opt);

  ASSERT_EQ(fast.shape(), ref.shape());
  const float scale = std::max(1.0F, tensor::max_abs(ref));
  EXPECT_LE(tensor::max_abs_diff(fast, ref) / scale, tol_for(p.m));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WinogradLayerConv,
    ::testing::Values(
        // Exact multiples of m, with and without padding.
        LayerCase{2, 8, 8, 3, 4, 1}, LayerCase{2, 8, 8, 1, 1, 0},
        LayerCase{3, 11, 11, 2, 3, 1}, LayerCase{4, 10, 10, 4, 2, 1},
        LayerCase{4, 6, 6, 1, 1, 0},
        // Ragged sizes exercising edge-tile clipping.
        LayerCase{2, 7, 9, 2, 2, 1}, LayerCase{3, 7, 5, 3, 2, 1},
        LayerCase{4, 9, 7, 2, 2, 1}, LayerCase{5, 13, 11, 2, 2, 1},
        LayerCase{6, 14, 9, 1, 2, 1}, LayerCase{7, 15, 10, 2, 1, 1},
        // Non-square images.
        LayerCase{2, 4, 16, 2, 2, 1}, LayerCase{4, 16, 4, 2, 2, 0}),
    [](const auto& info) {
      const auto& p = info.param;
      return "m" + std::to_string(p.m) + "_h" + std::to_string(p.h) + "w" +
             std::to_string(p.w) + "c" + std::to_string(p.c) + "k" +
             std::to_string(p.k) + "p" + std::to_string(p.pad);
    });

TEST(WinogradLayer, FiveByFiveKernelsMatchSpatial) {
  // AlexNet's conv2 regime: r = 5, pad = 2 (see nn::alexnet()). The
  // generator, tiling and padding logic must all be r-generic.
  Rng rng(55);
  const Tensor4f input = random_tensor(1, 3, 13, 13, rng);
  const Tensor4f kernels = random_tensor(2, 3, 5, 5, rng);
  const Tensor4f ref =
      conv2d_spatial(input, kernels, {.pad = 2, .stride = 1});
  for (const int m : {2, 4}) {
    WinogradConvOptions opt;
    opt.pad = 2;
    const TileTransformer xf(transforms(m, 5));
    const Tensor4f fast = conv2d_winograd(input, kernels, xf, opt);
    ASSERT_EQ(fast.shape(), ref.shape()) << "m=" << m;
    const float scale = std::max(1.0F, tensor::max_abs(ref));
    EXPECT_LE(tensor::max_abs_diff(fast, ref) / scale, 2e-3F) << "m=" << m;
  }
}

TEST(WinogradLayer, AccumulationOrdersAgree) {
  // Transform-domain accumulation (software) and post-inverse accumulation
  // (the paper's hardware, Fig 7) must agree by linearity of A^T . A.
  Rng rng(99);
  const Tensor4f input = random_tensor(1, 5, 12, 12, rng);
  const Tensor4f kernels = random_tensor(3, 5, 3, 3, rng);
  WinogradConvOptions a;
  a.pad = 1;
  a.accumulation = AccumulationOrder::kTransformDomain;
  WinogradConvOptions b;
  b.pad = 1;
  b.accumulation = AccumulationOrder::kPostInverse;
  const Tensor4f ya = conv2d_winograd(input, kernels, 3, a);
  const Tensor4f yb = conv2d_winograd(input, kernels, 3, b);
  const float scale = std::max(1.0F, tensor::max_abs(ya));
  EXPECT_LE(tensor::max_abs_diff(ya, yb) / scale, 1e-4F);
}

TEST(WinogradLayer, BatchedInputsIndependent) {
  Rng rng(7);
  const Tensor4f batch = random_tensor(3, 2, 8, 8, rng);
  const Tensor4f kernels = random_tensor(2, 2, 3, 3, rng);
  WinogradConvOptions opt;
  opt.pad = 1;
  const Tensor4f all = conv2d_winograd(batch, kernels, 2, opt);

  // Each image processed alone must equal its slice of the batch result.
  for (std::size_t img = 0; img < 3; ++img) {
    Tensor4f one(1, 2, 8, 8);
    for (std::size_t c = 0; c < 2; ++c) {
      for (std::size_t y = 0; y < 8; ++y) {
        for (std::size_t x = 0; x < 8; ++x) {
          one(0, c, y, x) = batch(img, c, y, x);
        }
      }
    }
    const Tensor4f single = conv2d_winograd(one, kernels, 2, opt);
    for (std::size_t k = 0; k < 2; ++k) {
      for (std::size_t y = 0; y < 8; ++y) {
        for (std::size_t x = 0; x < 8; ++x) {
          EXPECT_FLOAT_EQ(single(0, k, y, x), all(img, k, y, x));
        }
      }
    }
  }
}

TEST(WinogradLayer, RejectsChannelMismatch) {
  const Tensor4f input(1, 3, 8, 8);
  const Tensor4f kernels(2, 4, 3, 3);
  EXPECT_THROW(conv2d_winograd(input, kernels, 2), std::invalid_argument);
}

TEST(WinogradLayer, RejectsTooSmallInput) {
  const Tensor4f input(1, 1, 2, 2);
  const Tensor4f kernels(1, 1, 3, 3);
  WinogradConvOptions opt;  // no padding: 2x2 input cannot fit a 3x3 kernel
  EXPECT_THROW(conv2d_winograd(input, kernels, 2, opt),
               std::invalid_argument);
}

TEST(TransformedKernels, LayoutAndValues) {
  Rng rng(3);
  const TileTransformer xf(transforms(2, 3));
  const Tensor4f kernels = random_tensor(2, 3, 3, 3, rng);
  const TransformedKernels tk(xf, kernels);
  EXPECT_EQ(tk.kernel_count(), 2u);
  EXPECT_EQ(tk.channels(), 3u);

  // Spot-check one (k, c) against a direct transform.
  std::vector<float> g(9);
  for (std::size_t u = 0; u < 3; ++u) {
    for (std::size_t v = 0; v < 3; ++v) g[u * 3 + v] = kernels(1, 2, u, v);
  }
  std::vector<float> want(16);
  xf.transform_filter(g, want);
  const auto got = tk.v(1, 2);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_FLOAT_EQ(got[i], want[i]);
  }
}

TEST(Conv2dWinograd, RejectsKernelBankFromDifferentTile) {
  // The cached-transform overload must refuse a TransformedKernels bank
  // built for another F(m): the tile areas differ and reading it with the
  // wrong transformer would run past the per-kernel spans.
  const TileTransformer xf2(transforms(2, 3));
  const TileTransformer xf4(transforms(4, 3));
  tensor::Tensor4f kernels(2, 3, 3, 3, 0.5F);
  const TransformedKernels tk2(xf2, kernels);
  const tensor::Tensor4f input(1, 3, 8, 8, 1.0F);
  EXPECT_THROW(conv2d_winograd(input, tk2, xf4, {}),
               std::invalid_argument);
  EXPECT_NO_THROW(conv2d_winograd(input, tk2, xf2, {}));
}

// -------------------------------------------------------------------------
// The tile walks' transforms against transform_data / inverse, bit for bit
// -------------------------------------------------------------------------

/// The NaN the hardware generates (Inf - Inf). When two NaNs of different
/// bits meet in an add, which one comes out depends on the operand order
/// of the instruction the compiler picked, which C++ does not pin; with
/// every NaN of a test equal to the generated one, each result is defined
/// bit for bit.
float generated_nan() {
  volatile float inf = std::numeric_limits<float>::infinity();
  return inf - inf;
}

/// A value for a hostile tile: mostly uniform in [-2, 2), with +/-0,
/// subnormals, +/-Inf and NaN mixed in.
float hostile_value(Rng& rng) {
  using limits = std::numeric_limits<float>;
  const float special[] = {0.0F,
                           -0.0F,
                           limits::denorm_min(),
                           -3.0F * limits::denorm_min(),
                           limits::min() / 8.0F,
                           limits::infinity(),
                           -limits::infinity(),
                           generated_nan()};
  const std::int64_t pick = rng.uniform_int(0, 3 * std::size(special) - 1);
  return pick < static_cast<std::int64_t>(std::size(special))
             ? special[pick]
             : rng.uniform(-2.0F, 2.0F);
}

std::vector<float> hostile_values(std::size_t count, Rng& rng) {
  std::vector<float> v(count);
  for (float& x : v) x = hostile_value(rng);
  return v;
}

bool same_bytes(const float* a, const float* b, std::size_t count) {
  return std::memcmp(a, b, count * sizeof(float)) == 0;
}

TEST(TileTransforms, MatchTransformDataAndInverseBitForBit) {
  Rng rng(2024);
  for (const int r : {3, 5}) {
    for (const int m : {2, 3, 4}) {
      const TileTransformer xf(transforms(m, r));
      const auto n = static_cast<std::size_t>(xf.tile());
      const std::size_t nsq = n * n;
      const std::size_t msq = static_cast<std::size_t>(m * m);
      std::vector<float> want(nsq);
      std::vector<float> tile(nsq);
      // One tile, separate and aliased output.
      for (int rep = 0; rep < 64; ++rep) {
        const std::vector<float> d = hostile_values(nsq, rng);
        std::vector<float> got(nsq);
        xf.transform_data(d, want);
        xf.transform_data_tile(d.data(), got.data());
        EXPECT_TRUE(same_bytes(got.data(), want.data(), nsq))
            << "data m=" << m << " r=" << r;
        got = d;
        xf.transform_data_tile(got.data(), got.data());
        EXPECT_TRUE(same_bytes(got.data(), want.data(), nsq))
            << "data in place m=" << m << " r=" << r;
        xf.inverse(d, std::span(want).first(msq));
        got = d;
        xf.inverse_tile(got.data(), got.data());
        EXPECT_TRUE(same_bytes(got.data(), want.data(), msq))
            << "inverse m=" << m << " r=" << r;
      }
      // Interleaved lanes: every count 1..16, at a stride wider than the
      // lane count so lanes past `lanes` must come through untouched.
      for (std::size_t lanes = 1; lanes <= 16; ++lanes) {
        const std::size_t stride = lanes + 3;
        const std::vector<float> bank = hostile_values(nsq * stride, rng);
        std::vector<float> data = bank;
        std::vector<float> inv = bank;
        xf.transform_data_lanes(data.data(), lanes, stride, tile.data());
        xf.inverse_lanes(inv.data(), lanes, stride, tile.data());
        std::vector<float> want_data = bank;
        std::vector<float> want_inv = bank;
        std::vector<float> lane(nsq);
        for (std::size_t t = 0; t < lanes; ++t) {
          for (std::size_t e = 0; e < nsq; ++e) lane[e] = bank[e * stride + t];
          xf.transform_data(lane, want);
          for (std::size_t e = 0; e < nsq; ++e) {
            want_data[e * stride + t] = want[e];
          }
          xf.inverse(lane, std::span(want).first(msq));
          for (std::size_t e = 0; e < msq; ++e) {
            want_inv[e * stride + t] = want[e];
          }
        }
        EXPECT_TRUE(same_bytes(data.data(), want_data.data(), data.size()))
            << "data lanes m=" << m << " r=" << r << " lanes=" << lanes;
        EXPECT_TRUE(same_bytes(inv.data(), want_inv.data(), inv.size()))
            << "inverse lanes m=" << m << " r=" << r << " lanes=" << lanes;
      }
    }
  }
}

}  // namespace
}  // namespace wino::winograd
