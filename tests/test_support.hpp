// Helpers shared by several suites: running a body under every kernel set
// the host supports, hostile input images, and the plans the benchmark
// pins.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "nn/forward.hpp"
#include "nn/plan.hpp"
#include "runtime/kernel_registry.hpp"
#include "tensor/tensor.hpp"

namespace wino::test {

/// Runs body() once per kernel set in runtime::kernel_sets(), with that set
/// pinned; failures carry the set's name.
template <class Body>
void for_each_kernel_set(const Body& body) {
  for (const runtime::KernelSet& set : runtime::kernel_sets()) {
    SCOPED_TRACE(std::string("kernel set ") + set.name);
    const runtime::ScopedKernelSet pin(set);
    body();
  }
}

/// The NaN the hardware generates (Inf - Inf). Which of two NaNs of
/// different bits an add returns depends on the operand order the compiler
/// picked, which C++ does not pin; with every NaN equal to the generated
/// one, each output is defined bit for bit.
inline float generated_nan() {
  volatile float inf = std::numeric_limits<float>::infinity();
  return inf - inf;
}

/// `batch` images cycling through four kinds: all NaN; uniform values with
/// NaN and +/-Inf sprinkled in; all zero; plain uniform values.
inline tensor::Tensor4f hostile_batch(std::size_t batch, std::size_t c,
                                      std::size_t h, std::size_t w,
                                      common::Rng& rng) {
  tensor::Tensor4f t(batch, c, h, w);
  rng.fill_uniform(t.flat());
  const float inf = std::numeric_limits<float>::infinity();
  const std::size_t volume = c * h * w;
  for (std::size_t img = 0; img < batch; ++img) {
    const auto image = t.flat().subspan(img * volume, volume);
    for (float& v : image) {
      switch (img % 4) {
        case 0:
          v = generated_nan();
          break;
        case 1: {
          const std::int64_t pick = rng.uniform_int(0, 7);
          if (pick == 0) v = generated_nan();
          if (pick == 1) v = inf;
          if (pick == 2) v = -inf;
          break;
        }
        case 2:
          v = 0.0F;
          break;
        default:
          break;
      }
    }
  }
  return t;
}

/// One of the plans perfbench pins: VGG-16 D at 224 / scale with channels
/// divided by 8, one algorithm per conv layer.
struct PinnedPlan {
  const char* name;
  std::size_t scale;
  std::vector<std::string> algos;

  [[nodiscard]] std::vector<nn::LayerSpec> layers() const {
    return nn::vgg16_d_scaled(scale, 8);
  }

  [[nodiscard]] nn::ExecutionPlan plan() const {
    const auto specs = layers();
    nn::ExecutionPlan p = nn::uniform_plan(specs, nn::ConvAlgo::kIm2col);
    std::size_t ci = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].kind == nn::LayerKind::kConv) {
        p.steps[i].algo = nn::parse_conv_algo(algos.at(ci++));
      }
    }
    EXPECT_EQ(ci, algos.size()) << name;
    nn::replan_layouts(p);
    return p;
  }
};

/// offline-fp32, offline-int8 and serve-mix's small and large models.
inline std::vector<PinnedPlan> pinned_plans() {
  return {
      {"offline-fp32",
       7,
       {"im2col", "w4", "w4", "w4", "w4", "w4", "w4", "w4", "w4", "w4", "w2",
        "w2", "w2"}},
      {"offline-int8",
       7,
       {"i8w2", "int8", "int8", "int8", "int8", "int8", "int8", "i8w2",
        "int8", "int8", "i8w2", "int8", "int8"}},
      {"serve-mix small",
       28,
       {"im2col", "w4", "w4", "w4", "w2", "w2", "w2", "w2", "w2", "w2", "w2",
        "w2", "w2"}},
      {"serve-mix large",
       14,
       {"im2col", "w4", "w4", "w4", "w4", "w4", "w4", "w2", "w2", "w2", "w2",
        "w2", "w2"}},
  };
}

}  // namespace wino::test
