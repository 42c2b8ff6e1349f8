// Model and plan definitions shared by the workloads, plus the traced-run
// machinery that attributes time to layers: a step-by-step replay of a
// pinned plan through the public kernels, GEMM probes at the plan's
// shapes, and the planner-drift probe.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "host.hpp"
#include "nn/forward.hpp"
#include "nn/plan.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

/// VGG16-D tower names, conv1 ... conv5.
inline const std::vector<std::string>& towers() {
  static const std::vector<std::string> names = {"conv1", "conv2", "conv3",
                                                 "conv4", "conv5"};
  return names;
}

/// One model of a workload: its layer stack, per-image input shape, the
/// pinned per-conv-layer algorithms and the seed of its weights.
struct ModelDef {
  std::string name;
  std::size_t scale = 7;  ///< vgg16_d_scaled(scale, 8): 224 / scale input
  std::vector<std::string> algos;  ///< one parse_conv_algo name per conv
  std::uint64_t weight_seed = 1;

  [[nodiscard]] std::vector<wino::nn::LayerSpec> layers() const {
    return wino::nn::vgg16_d_scaled(scale, 8);
  }
  [[nodiscard]] std::size_t extent() const { return 224 / scale; }
};

/// Builds the pinned plan: the listed algorithm per conv layer, the shared
/// layout pass, and (for int8 layers) the static activation scale and the
/// predicted error bound from `quant`.
wino::nn::ExecutionPlan pinned_plan(
    const ModelDef& def, const std::vector<wino::nn::LayerSpec>& layers,
    const wino::nn::QuantCalibration* quant);

/// Seeded uniform [-1, 1) batch of `n` images for `def`.
wino::tensor::Tensor4f random_batch(const ModelDef& def, std::size_t n,
                                    std::uint64_t seed);

/// Seed of the fixed evaluation set the reported rel_error is measured on.
/// The set is part of each workload's definition, drawn from a stream no
/// run seed shares, so rel_error is the same in every run of a build and
/// moves only when the numerics do.
constexpr std::uint64_t kEvaluationSeed = 0xE7A15E7;

/// Output error of `plan` against the fp32 im2col oracle on `images`
/// seeded images, evaluated a batch of 8 at a time: the max-abs error over
/// the oracle's output range of each batch, and the worst batch returned.
double rel_error(const ModelDef& def, const wino::nn::ExecutionPlan& plan,
                 const wino::nn::WeightBank& weights, std::size_t images,
                 std::uint64_t seed);

/// Byte-exact equality of shape and contents.
bool same_bytes(const wino::tensor::Tensor4f& a,
                const wino::tensor::Tensor4f& b);

/// Tower name of each layer (conv, pool and FC layers alike take the tower
/// of the nearest preceding conv layer; FC gets "fc").
std::vector<std::string> layer_towers(
    const std::vector<wino::nn::LayerSpec>& layers);

/// Per-layer attribution accumulated over one or more replayed models.
struct LayerBreakdown {
  struct TowerSums {
    double wino_ms = 0, wino_ops = 0, wino_bytes = 0;
    double im2col_ms = 0;
    double quant_ms = 0, quant_ops = 0;
    double sgemm_flops = 0, sgemm_s = 0;
    double igemm_ops = 0, igemm_s = 0;
    double predicted_ms = 0, observed_conv_ms = 0;
  };
  std::vector<TowerSums> tower = std::vector<TowerSums>(5);
  double pool_ms = 0, fc_ms = 0, pack_ms = 0, unpack_ms = 0;
  double layers_sum_ms = 0;
  double forward_ms = 0;  ///< median untraced forward(plan) per call

  /// Emits every per-layer metric derived from the breakdown.
  void report(Metrics& m, const HostInfo& host) const;
};

/// Replays `plan` step by step through the public kernels on `x`, repeating
/// until `budget_s` elapses (at least 3, at most 400 times), records a span
/// per call into `trace`, and adds the per-step median times to `out`.
/// Returns false when the replay's output differs from `expected` (the
/// forward(plan) output on the same input) in any byte.
bool replay_plan(const wino::nn::ExecutionPlan& plan,
                 const wino::nn::WeightBank& weights,
                 const wino::tensor::Tensor4f& x,
                 const wino::tensor::Tensor4f& expected, double budget_s,
                 Trace& trace, LayerBreakdown& out);

/// Times runtime::sgemm / igemm_nt at the GEMM shapes of the plan's fp32
/// and int8 im2col layers (per image, as the executor issues them).
void probe_gemms(const wino::nn::ExecutionPlan& plan, std::size_t batch,
                 LayerBreakdown& out);

/// Adds the cost model's predicted ms (measured calibration, at `batch`)
/// of every conv layer to the tower sums.
void add_predictions(const wino::nn::ExecutionPlan& plan, std::size_t batch,
                     LayerBreakdown& out);

/// Median ms of forward(plan) at the batch of `x`, closed loop for
/// `seconds` (at least 5 calls), recording one span per call when `trace`
/// is enabled.
double median_forward_ms(const wino::nn::ExecutionPlan& plan,
                         const wino::nn::WeightBank& weights,
                         const wino::tensor::Tensor4f& x, double seconds,
                         Trace* trace);

/// Result of one cold measured planning run.
struct DriftProbe {
  double plan_s = 0;
  double layer_measurements = 0;
  bool matches_pinned = false;
  double drift_ms_per_img = 0;
  double pinned_ms_per_img = 0;
  std::string chosen;  ///< the planner's algorithm list
};

/// Drops the measured caches, runs plan_execution (measured mode) with
/// `options`, and times the chosen plan against `pinned` on `x`.
DriftProbe probe_planner(const wino::nn::ExecutionPlan& pinned,
                         const wino::nn::WeightBank& weights,
                         const wino::nn::PlannerOptions& options,
                         const wino::tensor::Tensor4f& x);

/// Space-separated algorithm names of the plan's conv layers.
std::string plan_algos(const wino::nn::ExecutionPlan& plan);

/// Reports the planner-drift metrics summed over the probed models.
void report_drift(const std::vector<DriftProbe>& probes, Metrics& m,
                  JsonObject& details);

/// Memory metrics: MemoryPlan peak per image, the caller's workspace slab
/// and the transformed-kernel cache counters.
void report_memory(const std::vector<const wino::nn::ExecutionPlan*>& plans,
                   Metrics& m);

/// Resets this process's VmHWM to its current resident set
/// (/proc/self/clear_refs), so the peak covers only what runs after it.
/// Returns false when the kernel refuses.
bool reset_rss_peak();

/// Peak resident set (VmHWM) of this process in MiB; 0 if unreadable.
double rss_peak_mib();

}  // namespace perfbench
