// Tile-form vs NCHW handoffs through the VGG-16 layer chain: what eliding
// the NCHW round-trip at Winograd layer boundaries (tile-form handoffs +
// ReLU fused into the output scatter) buys over materialising NCHW at
// every boundary. Both sides are the same forward(plan) executor: the
// tiled side runs uniform_plan(layers, algo) as planned; the NCHW side is
// that plan with every step set to NCHW output, no fused ReLU, and its
// memory plan rebuilt. Both run the identical arithmetic (bit-identical
// outputs, asserted here and pinned by tests/nn_forward_test.cpp against
// forward_reference), so the delta is pure data-movement cost.
//
// Emits BENCH_layout.json next to the binary (or at --out); the
// speedup_elided_vs_nchw and deterministic fields carry the CI gate's
// verdict (bench/baselines/BENCH_layout_baseline.json).
//
// Usage: layout_pipeline [--quick] [--out <path>]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/bench_io.hpp"
#include "common/random.hpp"
#include "common/table.hpp"
#include "nn/forward.hpp"
#include "nn/memory_plan.hpp"
#include "nn/plan.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/tensor.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using wino::tensor::Tensor4f;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> samples) {
  const auto mid =
      samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  return *mid;
}

struct AlgoResult {
  std::string algo;
  double nchw_img_per_s = 0;
  double elided_img_per_s = 0;
  double speedup = 0;  // median of paired per-rep time ratios
  std::size_t elided_boundaries = 0;
  std::size_t boundaries = 0;
  std::uint64_t nchw_floats_elided = 0;  // per image
  bool bit_identical = false;
};

/// The same plan with an NCHW handoff at every boundary: unfused ReLU and
/// a memory plan rebuilt for the NCHW activations.
wino::nn::ExecutionPlan with_nchw_handoffs(wino::nn::ExecutionPlan plan) {
  for (wino::nn::LayerPlan& step : plan.steps) {
    step.output_kind = wino::tensor::LayoutKind::kNCHW;
    step.out_tile_m = 0;
    step.fused_relu = false;
  }
  plan.nchw_boundaries = plan.boundaries;
  plan.memory = wino::nn::build_memory_plan(plan);
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  if (!wino::common::validate_bench_args(
          argc, argv, {"--quick"},
          "layout_pipeline [--quick] [--out <path>]")) {
    return 2;
  }
  const bool quick = wino::common::has_flag(argc, argv, "--quick");

  // The scaled VGG16-D chain: all 13 conv layers (the elision target),
  // pools and the classifier head. --quick halves the resolution.
  const std::size_t scale = quick ? 14 : 7;
  const std::size_t hw = 224 / scale;
  const auto layers = wino::nn::vgg16_d_scaled(scale, 8);
  const auto weights = wino::nn::random_weights(layers, 7);
  const std::size_t batch = 8;
  // One extra rep runs cold and is discarded: even after the explicit
  // warm-up, the first timed pair occasionally carries one-off allocator /
  // icache effects that would pollute a 9-sample median.
  const int reps = quick ? 9 : 11;

  wino::common::Rng rng(11);
  Tensor4f input(batch, 3, hw, hw);
  rng.fill_uniform(input.flat(), -1.0F, 1.0F);

  std::printf("layout_pipeline — tile-form vs NCHW handoffs, one "
              "forward(plan) executor\nscaled VGG16-D (%zux%zu input, "
              "batch %zu), %d interleaved reps, %zu threads\n\n",
              hw, hw, batch, reps,
              wino::runtime::ThreadPool::global().threads());

  const std::vector<wino::nn::ConvAlgo> algos = {
      wino::nn::ConvAlgo::kWinograd2, wino::nn::ConvAlgo::kWinograd4};

  std::vector<AlgoResult> results;
  std::vector<double> all_ratios;
  bool all_identical = true;
  for (const auto algo : algos) {
    const wino::nn::ExecutionPlan tiled =
        wino::nn::uniform_plan(layers, algo);
    const wino::nn::ExecutionPlan nchw = with_nchw_handoffs(tiled);
    AlgoResult r;
    r.algo = wino::nn::to_string(algo);
    r.elided_boundaries = tiled.boundaries - tiled.nchw_boundaries;
    r.boundaries = tiled.boundaries;
    for (std::size_t i = 0; i < r.boundaries; ++i) {
      if (tiled.steps[i].output_kind == wino::tensor::LayoutKind::kNCHW) {
        continue;
      }
      r.nchw_floats_elided += tiled.memory.act_layout[i].shape.volume();
    }

    // Warm the transform cache and both workspaces so neither side pays
    // filter transforms or slab growth.
    (void)wino::nn::forward(nchw, weights, input);
    (void)wino::nn::forward(tiled, weights, input);

    // Interleave the two sides so frequency/scheduler drift hits both
    // alike, and alternate which side runs first each rep so ordering
    // effects (allocator arenas, cache residency left by the previous
    // call) cancel in the median instead of biasing one side. The first
    // (cold) pair is measured but discarded.
    std::vector<double> nchw_secs;
    std::vector<double> elided_secs;
    Tensor4f out_nchw;
    Tensor4f out_elided;
    const auto timed = [&](const wino::nn::ExecutionPlan& plan,
                           Tensor4f& out) {
      const auto t0 = Clock::now();
      wino::nn::forward(plan, weights, input, out);
      return seconds_since(t0);
    };
    for (int rep = 0; rep <= reps; ++rep) {
      double nchw_s = 0;
      double elided_s = 0;
      if (rep % 2 == 0) {
        nchw_s = timed(nchw, out_nchw);
        elided_s = timed(tiled, out_elided);
      } else {
        elided_s = timed(tiled, out_elided);
        nchw_s = timed(nchw, out_nchw);
      }
      if (rep == 0) continue;  // cold pair
      nchw_secs.push_back(nchw_s);
      elided_secs.push_back(elided_s);
    }
    r.bit_identical =
        out_nchw.shape() == out_elided.shape() &&
        std::memcmp(out_nchw.flat().data(), out_elided.flat().data(),
                    out_nchw.flat().size() * sizeof(float)) == 0;
    all_identical = all_identical && r.bit_identical;

    r.nchw_img_per_s = static_cast<double>(batch) / median(nchw_secs);
    r.elided_img_per_s = static_cast<double>(batch) / median(elided_secs);
    std::vector<double> ratios;
    for (int rep = 0; rep < reps; ++rep) {
      ratios.push_back(nchw_secs[rep] / elided_secs[rep]);
      all_ratios.push_back(ratios.back());
    }
    r.speedup = median(ratios);
    results.push_back(r);
  }

  wino::common::TextTable table;
  table.header({"algo", "nchw img/s", "elided img/s", "speedup",
                "elided/boundaries", "bit-identical"});
  for (const AlgoResult& r : results) {
    table.row({r.algo, wino::common::TextTable::num(r.nchw_img_per_s),
               wino::common::TextTable::num(r.elided_img_per_s),
               wino::common::TextTable::num(r.speedup),
               std::to_string(r.elided_boundaries) + "/" +
                   std::to_string(r.boundaries),
               r.bit_identical ? "yes" : "NO"});
  }
  table.print();

  const double overall = median(all_ratios);
  const bool elided_wins = overall > 1.0;
  std::printf("\ntile-form vs NCHW handoff speedup (median of %zu paired "
              "reps): %.3fx (%s)\n",
              all_ratios.size(), overall,
              elided_wins ? "elided wins" : "NCHW WINS — regression");
  if (!all_identical) {
    std::printf("BIT-IDENTITY VIOLATION between handoff layouts\n");
    return 1;
  }

  // --- BENCH_layout.json ---------------------------------------------------
  const std::string json_path =
      wino::common::bench_output_path(argc, argv, "BENCH_layout.json");
  FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::printf("warning: could not open %s for writing\n",
                json_path.c_str());
    return 0;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"layout_pipeline\",\n  \"quick\": %s,\n"
               "  \"model\": \"vgg16-d-scaled-%zu\",\n  \"batch\": %zu,\n"
               "  \"reps\": %d,\n  \"algos\": [\n",
               quick ? "true" : "false", scale, batch, reps);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const AlgoResult& r = results[i];
    std::fprintf(
        json,
        "    {\"algo\": \"%s\", \"nchw_img_per_s\": %.4f,\n"
        "     \"elided_img_per_s\": %.4f, \"speedup\": %.4f,\n"
        "     \"elided_boundaries\": %zu, \"boundaries\": %zu,\n"
        "     \"nchw_floats_elided_per_img\": %llu, "
        "\"bit_identical\": %s}%s\n",
        r.algo.c_str(), r.nchw_img_per_s, r.elided_img_per_s, r.speedup,
        r.elided_boundaries, r.boundaries,
        static_cast<unsigned long long>(r.nchw_floats_elided),
        r.bit_identical ? "true" : "false",
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"speedup_elided_vs_nchw\": %.4f,\n"
               "  \"elided_beats_nchw\": %s,\n  \"deterministic\": %s\n}\n",
               overall, elided_wins ? "true" : "false",
               all_identical ? "true" : "false");
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
