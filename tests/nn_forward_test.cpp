#include "nn/forward.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>

#include "common/random.hpp"
#include "nn/plan.hpp"
#include "runtime/thread_pool.hpp"
#include "test_support.hpp"

namespace wino::nn {
namespace {

using common::Rng;
using tensor::Tensor4f;

TEST(Relu, ClampsNegatives) {
  Tensor4f t(1, 1, 1, 4);
  t(0, 0, 0, 0) = -1.0F;
  t(0, 0, 0, 1) = 0.0F;
  t(0, 0, 0, 2) = 2.5F;
  t(0, 0, 0, 3) = -0.1F;
  relu_inplace(t);
  EXPECT_FLOAT_EQ(t(0, 0, 0, 0), 0.0F);
  EXPECT_FLOAT_EQ(t(0, 0, 0, 1), 0.0F);
  EXPECT_FLOAT_EQ(t(0, 0, 0, 2), 2.5F);
  EXPECT_FLOAT_EQ(t(0, 0, 0, 3), 0.0F);
}

TEST(MaxPool, TwoByTwo) {
  Tensor4f t(1, 1, 4, 4);
  float v = 0.0F;
  for (auto& x : t.flat()) x = v++;
  const Tensor4f p = maxpool2x2(t);
  EXPECT_EQ(p.shape().h, 2u);
  EXPECT_EQ(p.shape().w, 2u);
  EXPECT_FLOAT_EQ(p(0, 0, 0, 0), 5.0F);
  EXPECT_FLOAT_EQ(p(0, 0, 1, 1), 15.0F);
}

TEST(MaxPool, RejectsTinyInput) {
  const Tensor4f t(1, 1, 1, 4);
  EXPECT_THROW(maxpool2x2(t), std::invalid_argument);
}

TEST(FullyConnected, SmallExact) {
  Tensor4f x(1, 3, 1, 1);
  x(0, 0, 0, 0) = 1.0F;
  x(0, 1, 0, 0) = 2.0F;
  x(0, 2, 0, 0) = 3.0F;
  const std::vector<float> w{1, 0, 0, 0, 1, 1};  // 2x3
  const std::vector<float> b{0.5F, -0.5F};
  const Tensor4f y = fully_connected(x, w, b, 2);
  EXPECT_FLOAT_EQ(y(0, 0, 0, 0), 1.5F);
  EXPECT_FLOAT_EQ(y(0, 1, 0, 0), 4.5F);
}

TEST(FullyConnected, SizeMismatchThrows) {
  const Tensor4f x(1, 3, 1, 1);
  EXPECT_THROW(fully_connected(x, std::vector<float>(5), {0.0F}, 1),
               std::invalid_argument);
}

TEST(Forward, AllAlgorithmsAgreeOnScaledVgg) {
  // End-to-end inference on a scaled-down VGG16-D: all conv algorithms
  // must produce (numerically) the same logits. Spatial and FFT have no
  // slab form, so they run through the NCHW oracle.
  const auto layers = vgg16_d_scaled(/*scale=*/7, /*channel_div=*/16);
  const WeightBank weights = random_weights(layers, 42);
  Tensor4f input(1, 3, 32, 32);
  Rng rng(17);
  rng.fill_uniform(input.flat());

  const auto run = [&](ConvAlgo algo) {
    return executor_runs(algo)
               ? forward(layers, weights, input, algo)
               : forward_reference(uniform_plan(layers, algo), weights,
                                   input);
  };
  const Tensor4f ref = run(ConvAlgo::kSpatial);
  ASSERT_GT(tensor::max_abs(ref), 0.0F);
  for (const ConvAlgo algo :
       {ConvAlgo::kIm2col, ConvAlgo::kFft, ConvAlgo::kWinograd2,
        ConvAlgo::kWinograd3, ConvAlgo::kWinograd4}) {
    const Tensor4f got = run(algo);
    ASSERT_EQ(got.shape(), ref.shape()) << to_string(algo);
    const float rel = tensor::max_abs_diff(got, ref) /
                      std::max(1.0F, tensor::max_abs(ref));
    EXPECT_LE(rel, 2e-3F) << to_string(algo);
  }
}

TEST(Forward, ScaledVggShapeInference) {
  const auto layers = vgg16_d_scaled(7, 16);
  const WeightBank weights = random_weights(layers);
  Tensor4f input(1, 3, 32, 32, 0.1F);
  const Tensor4f out = forward_reference(
      uniform_plan(layers, ConvAlgo::kSpatial), weights, input);
  EXPECT_EQ(out.shape().c, 10u);  // classifier head
  EXPECT_EQ(out.shape().h, 1u);
}

TEST(Forward, MissingWeightsThrow) {
  const auto layers = vgg16_d_scaled(7, 16);
  const WeightBank empty;
  const Tensor4f input(1, 3, 32, 32);
  EXPECT_THROW(forward_reference(uniform_plan(layers, ConvAlgo::kSpatial),
                                 empty, input),
               std::invalid_argument);
  EXPECT_THROW(forward(layers, empty, input, ConvAlgo::kIm2col),
               std::invalid_argument);
}

TEST(Forward, ScaledModelRejectsBadScale) {
  EXPECT_THROW(vgg16_d_scaled(5), std::invalid_argument);
  EXPECT_THROW(vgg16_d_scaled(0), std::invalid_argument);
  EXPECT_THROW(vgg16_d_scaled(7, 0), std::invalid_argument);
}

TEST(ConvAlgoNames, AllDistinct) {
  EXPECT_EQ(to_string(ConvAlgo::kWinograd4), "winograd-F(4x4,3x3)");
  EXPECT_NE(to_string(ConvAlgo::kSpatial), to_string(ConvAlgo::kIm2col));
}

TEST(TransformCache, RepeatedForwardHitsInsteadOfRetransforming) {
  const auto layers = vgg16_d_scaled(28, 16);  // 8x8 input, tiny
  const WeightBank weights = random_weights(layers, 7);
  Tensor4f input(2, 3, 8, 8);
  Rng rng(19);
  rng.fill_uniform(input.flat());

  clear_transform_cache();
  const Tensor4f first =
      forward(layers, weights, input, ConvAlgo::kWinograd2);
  const auto after_first = transform_cache_stats();
  const std::size_t conv_layers = weights.conv_kernels.size();
  EXPECT_EQ(after_first.misses, conv_layers);
  EXPECT_EQ(after_first.entries, conv_layers);

  // The serving shape: same weights, another call. No new transforms.
  const Tensor4f second =
      forward(layers, weights, input, ConvAlgo::kWinograd2);
  const auto after_second = transform_cache_stats();
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_GT(after_second.hits, after_first.hits);
  EXPECT_EQ(tensor::max_abs_diff(first, second), 0.0F);

  // Distinct F(m) tiles are distinct cache entries, not collisions.
  forward(layers, weights, input, ConvAlgo::kWinograd4);
  EXPECT_EQ(transform_cache_stats().misses, 2 * conv_layers);
  clear_transform_cache();
  EXPECT_EQ(transform_cache_stats().entries, 0u);
}

TEST(UniformPlan, TilesEveryWinogradHandoffUpToTheClassifier) {
  const auto layers = vgg16_d_scaled(7, 16);
  const ExecutionPlan plan = uniform_plan(layers, ConvAlgo::kWinograd2);
  ASSERT_EQ(plan.steps.size(), layers.size());
  EXPECT_EQ(plan.boundaries, layers.size() - 1);
  // VGG16-D groups: 2+2+3+3+3 conv layers -> 1+1+2+2+2 = 8 conv->conv
  // handoffs stay in tile form, and so does every conv -> pool and
  // pool -> conv boundary; only pool5 -> FC (and the output) is NCHW.
  std::size_t conv_to_conv_tiled = 0;
  for (std::size_t i = 0; i + 1 < layers.size(); ++i) {
    const bool tiled =
        plan.steps[i].output_kind == tensor::LayoutKind::kWinogradTile;
    if (layers[i].kind == LayerKind::kConv &&
        layers[i + 1].kind == LayerKind::kConv && tiled) {
      ++conv_to_conv_tiled;
    }
    EXPECT_EQ(tiled, layers[i + 1].kind != LayerKind::kFullyConnected)
        << "boundary " << i;
  }
  EXPECT_EQ(conv_to_conv_tiled, 8u);
  EXPECT_EQ(plan.nchw_boundaries, 1u);
  EXPECT_EQ(plan.steps.back().output_kind, tensor::LayoutKind::kNCHW);
  // Non-Winograd algos have no tiled form: every boundary is NCHW.
  const ExecutionPlan im2col_plan = uniform_plan(layers, ConvAlgo::kIm2col);
  EXPECT_EQ(im2col_plan.nchw_boundaries, im2col_plan.boundaries);
}

TEST(ForwardPlan, BitIdenticalToReferenceAcrossBatchesAndThreads) {
  // The determinism contract: the slab executor (tile-form handoffs, fused
  // ReLU, packed im2col panels) must reproduce the always-NCHW oracle
  // bit-for-bit — per algorithm, per batch size, per thread count.
  const auto layers = vgg16_d_scaled(/*scale=*/14, /*channel_div=*/16);
  const WeightBank weights = random_weights(layers, 77);
  Rng rng(79);
  for (const ConvAlgo algo :
       {ConvAlgo::kWinograd2, ConvAlgo::kWinograd3, ConvAlgo::kWinograd4,
        ConvAlgo::kIm2col}) {
    const ExecutionPlan plan = uniform_plan(layers, algo);
    for (const std::size_t batch : {1u, 5u}) {
      Tensor4f input(batch, 3, 16, 16);
      rng.fill_uniform(input.flat(), -1.0F, 1.0F);
      const Tensor4f nchw = forward_reference(plan, weights, input);
      for (const std::size_t threads : {1u, 4u}) {
        runtime::ThreadPool::set_global_threads(threads);
        const Tensor4f planned = forward(plan, weights, input);
        ASSERT_EQ(planned.shape(), nchw.shape()) << to_string(algo);
        ASSERT_EQ(std::memcmp(planned.flat().data(), nchw.flat().data(),
                              nchw.flat().size() * sizeof(float)),
                  0)
            << to_string(algo) << " batch=" << batch
            << " threads=" << threads;
      }
    }
  }
  runtime::ThreadPool::set_global_threads(
      std::max(1u, std::thread::hardware_concurrency()));  // restore
}

TEST(ForwardPlan, EveryKernelSetBitIdenticalOnPinnedBenchmarkPlans) {
  // The benchmark's four pinned plans at batch 1 and 8: every kernel set
  // the host runs must produce the reference's bytes, so the sets also
  // equal each other.
  for (const test::PinnedPlan& p : test::pinned_plans()) {
    const ExecutionPlan plan = p.plan();
    const WeightBank weights = random_weights(plan.layers, 41);
    const std::size_t hw = 224 / p.scale;
    Rng rng(42);
    for (const std::size_t batch : {1u, 8u}) {
      Tensor4f in(batch, 3, hw, hw);
      rng.fill_uniform(in.flat());
      const Tensor4f want = forward_reference(plan, weights, in);
      test::for_each_kernel_set([&] {
        const Tensor4f got = forward(plan, weights, in);
        ASSERT_EQ(got.shape(), want.shape());
        EXPECT_EQ(std::memcmp(got.flat().data(), want.flat().data(),
                              want.size() * sizeof(float)),
                  0)
            << p.name << " batch=" << batch;
      });
    }
  }
}

TEST(TransformCache, BumpVersionInvalidatesStaleTransforms) {
  const auto layers = vgg16_d_scaled(28, 16);
  WeightBank weights = random_weights(layers, 9);
  Tensor4f input(1, 3, 8, 8);
  Rng rng(23);
  rng.fill_uniform(input.flat());

  clear_transform_cache();
  const Tensor4f before =
      forward(layers, weights, input, ConvAlgo::kWinograd2);
  const auto cold = transform_cache_stats();

  // Mutate a kernel in place; without a version bump the cache would keep
  // serving transforms of the old values.
  for (float& v : weights.conv_kernels[0].flat()) v *= 2.0F;
  weights.bump_version();
  const Tensor4f after =
      forward(layers, weights, input, ConvAlgo::kWinograd2);
  EXPECT_GT(transform_cache_stats().misses, cold.misses);
  EXPECT_GT(tensor::max_abs_diff(before, after), 0.0F);
}

}  // namespace
}  // namespace wino::nn
