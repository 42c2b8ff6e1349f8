#include "models.hpp"

#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "common/random.hpp"
#include "conv/im2col.hpp"
#include "dse/complexity.hpp"
#include "quant/int8.hpp"
#include "runtime/gemm.hpp"
#include "runtime/igemm.hpp"
#include "tensor/layout.hpp"
#include "winograd/cook_toom.hpp"
#include "winograd/kernels.hpp"

namespace perfbench {

namespace nn = wino::nn;
namespace tensor = wino::tensor;
using nn::ConvAlgo;
using nn::LayerKind;
using tensor::Tensor4f;

nn::ExecutionPlan pinned_plan(const ModelDef& def,
                              const std::vector<nn::LayerSpec>& layers,
                              const nn::QuantCalibration* quant) {
  nn::ExecutionPlan plan = nn::uniform_plan(layers, ConvAlgo::kIm2col);
  std::size_t ci = 0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (layers[i].kind != LayerKind::kConv) continue;
    if (ci >= def.algos.size()) {
      throw std::invalid_argument(def.name + ": fewer pinned algos than convs");
    }
    nn::LayerPlan& step = plan.steps[i];
    step.algo = nn::parse_conv_algo(def.algos[ci]);
    if (nn::is_int8(step.algo)) {
      const nn::LayerActivationStats* stats =
          quant != nullptr ? &quant->conv_inputs.at(ci) : nullptr;
      if (stats != nullptr) {
        step.act_scale = static_cast<float>(stats->max_abs / 127.0);
      }
      plan.predicted_max_rel_error =
          std::max(plan.predicted_max_rel_error,
                   nn::predict_layer_rel_error(layers[i].conv, step.algo,
                                               stats));
    }
    ++ci;
  }
  if (ci != def.algos.size()) {
    throw std::invalid_argument(def.name + ": more pinned algos than convs");
  }
  nn::replan_layouts(plan);
  return plan;
}

Tensor4f random_batch(const ModelDef& def, std::size_t n, std::uint64_t seed) {
  Tensor4f t(n, 3, def.extent(), def.extent());
  wino::common::Rng rng(seed);
  rng.fill_uniform(t.flat());
  return t;
}

double rel_error(const ModelDef& def, const nn::ExecutionPlan& plan,
                 const nn::WeightBank& weights, std::size_t images,
                 std::uint64_t seed) {
  constexpr std::size_t kBatch = 8;
  // The fp32 oracle: im2col on every conv layer, always-NCHW data flow.
  const nn::ExecutionPlan oracle =
      nn::uniform_plan(plan.layers, ConvAlgo::kIm2col);
  double worst = 0;
  for (std::size_t first = 0; first < images; first += kBatch) {
    const Tensor4f x = random_batch(def, kBatch, mix_seed(seed, first));
    const Tensor4f out = nn::forward(plan, weights, x);
    const Tensor4f ref = nn::forward_reference(oracle, weights, x);
    double err = 0;
    double lo = ref.flat()[0];
    double hi = lo;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const double r = ref.flat()[i];
      err = std::max(err, std::fabs(static_cast<double>(out.flat()[i]) - r));
      lo = std::min(lo, r);
      hi = std::max(hi, r);
    }
    worst = std::max(worst, hi > lo ? err / (hi - lo) : err);
  }
  return worst;
}

bool same_bytes(const Tensor4f& a, const Tensor4f& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.size() * sizeof(float)) == 0;
}

std::vector<std::string> layer_towers(
    const std::vector<nn::LayerSpec>& layers) {
  // VGG16-D's towers hold 2, 2, 3, 3 and 3 conv layers.
  static constexpr std::size_t kTowerEnd[] = {2, 4, 7, 10, 13};
  std::vector<std::string> out;
  std::size_t ci = 0;
  std::string current = towers()[0];
  for (const auto& l : layers) {
    if (l.kind == LayerKind::kConv) {
      std::size_t t = 0;
      while (t < 4 && ci >= kTowerEnd[t]) ++t;
      current = towers()[t];
      ++ci;
      out.push_back(current);
    } else if (l.kind == LayerKind::kFullyConnected) {
      out.push_back("fc");
    } else {
      out.push_back(current);
    }
  }
  return out;
}

namespace {

std::size_t tower_index(const std::string& name) {
  for (std::size_t t = 0; t < towers().size(); ++t) {
    if (towers()[t] == name) return t;
  }
  return 0;
}

/// Modelled ops of a Winograd conv at `batch`: exact tiled multiplies
/// (multiply + add) plus data and inverse transforms, as the planner counts.
double winograd_ops(const nn::ConvLayerSpec& l, int m, std::size_t batch) {
  const auto costs =
      wino::dse::TransformCosts::from_generated(m, static_cast<int>(l.r));
  const auto t = wino::dse::transform_complexity_tiled(l, m, costs, batch);
  return 2.0 * static_cast<double>(
                   wino::dse::mult_complexity_tiled(l, m, batch)) +
         t.data + t.inverse;
}

/// Kernel-side state a replayed conv layer needs, built once outside the
/// timed calls (forward(plan) keeps the same state in its caches).
struct ConvPrep {
  std::unique_ptr<wino::winograd::TileTransformer> xf;
  std::unique_ptr<wino::winograd::TransformedKernels> tk;
  std::unique_ptr<wino::quant::QuantizedFilter> qf;
  std::unique_ptr<wino::quant::QuantizedWinogradKernels> qk;
};

ConvPrep prepare_conv(ConvAlgo algo, const Tensor4f& kern) {
  ConvPrep p;
  const int r = static_cast<int>(kern.shape().h);
  const int m = nn::winograd_m(algo) > 0 ? nn::winograd_m(algo)
                                         : nn::int8_winograd_m(algo);
  if (m > 0) {
    p.xf = std::make_unique<wino::winograd::TileTransformer>(
        wino::winograd::transforms(m, r));
  }
  if (nn::winograd_m(algo) > 0) {
    p.tk = std::make_unique<wino::winograd::TransformedKernels>(*p.xf, kern);
  } else if (algo == ConvAlgo::kInt8Im2col) {
    p.qf = std::make_unique<wino::quant::QuantizedFilter>(
        wino::quant::quantize_filters(kern));
  } else if (nn::int8_winograd_m(algo) > 0) {
    p.qk = std::make_unique<wino::quant::QuantizedWinogradKernels>(
        wino::quant::quantize_winograd_kernels(*p.xf, kern));
  }
  return p;
}

/// What the replay learns about one step on its first repetition.
struct StepInfo {
  enum Kind { kWinograd, kIm2col, kQuant, kPool, kFc };
  Kind kind = kPool;
  double ops = 0;
  double bytes = 0;
};

}  // namespace

bool replay_plan(const nn::ExecutionPlan& plan, const nn::WeightBank& weights,
                 const Tensor4f& x, const Tensor4f& expected, double budget_s,
                 Trace& trace, LayerBreakdown& out) {
  const auto& layers = plan.layers;
  const std::size_t n = x.shape().n;
  const std::vector<std::string> tower_of = layer_towers(layers);
  std::vector<ConvPrep> prep(layers.size());
  {
    std::size_t ci = 0;
    for (std::size_t i = 0; i < layers.size(); ++i) {
      if (layers[i].kind != LayerKind::kConv) continue;
      prep[i] = prepare_conv(plan.steps[i].algo, weights.conv_kernels.at(ci));
      ++ci;
    }
  }
  std::vector<StepInfo> info(layers.size());
  std::vector<std::vector<double>> step_ms(layers.size());
  std::vector<double> pack_ms, unpack_ms;
  bool ok = true;

  const auto start = Clock::now();
  constexpr int kMinReps = 3;
  constexpr int kMaxReps = 400;
  for (int rep = 0; rep < kMaxReps &&
                    (rep < kMinReps || seconds_since(start) < budget_s);
       ++rep) {
    const auto rep_start = Clock::now();
    const std::uint64_t root =
        trace.begin("nn.replay", rep_start, 0, static_cast<std::uint64_t>(rep));
    double rep_pack = 0;
    double rep_unpack = 0;
    // Layout bridges between the replayed kernels: the executor hands these
    // activations over in place, the replay converts them explicitly.
    const auto pack = [&](const Tensor4f& t, const tensor::Layout& l) {
      const auto t0 = Clock::now();
      tensor::PackedActivation p = tensor::pack(t, l);
      const auto t1 = Clock::now();
      rep_pack += ms_between(t0, t1);
      trace.add("tensor.pack", t0, t1, root, static_cast<std::uint64_t>(rep));
      return p;
    };
    const auto unpack = [&](const tensor::PackedActivation& p) {
      const auto t0 = Clock::now();
      Tensor4f t = tensor::unpack(p);
      const auto t1 = Clock::now();
      rep_unpack += ms_between(t0, t1);
      trace.add("tensor.unpack", t0, t1, root,
                static_cast<std::uint64_t>(rep));
      return t;
    };

    tensor::PackedActivation act = pack(x, tensor::Layout::nchw(x.shape()));
    std::size_t ci = 0;
    std::size_t fi = 0;
    for (std::size_t li = 0; li < layers.size(); ++li) {
      const nn::LayerSpec& l = layers[li];
      const nn::LayerPlan& step = plan.steps[li];
      StepInfo& si = info[li];
      const char* span_name = "nn.pool";
      Clock::time_point t0;
      Clock::time_point t1;
      if (l.kind == LayerKind::kConv) {
        const Tensor4f& kern = weights.conv_kernels.at(ci);
        const ConvPrep& cp = prep[li];
        if (nn::winograd_m(step.algo) > 0) {
          wino::winograd::WinogradConvOptions wopt;
          wopt.pad = l.conv.pad;
          const double in_bytes = 4.0 * static_cast<double>(act.data.size());
          t0 = Clock::now();
          act = wino::winograd::conv2d_winograd_layout(
              act, *cp.tk, *cp.xf, wopt, step.output_kind, step.fused_relu);
          t1 = Clock::now();
          span_name = "winograd.conv";
          si.kind = StepInfo::kWinograd;
          si.ops = winograd_ops(l.conv, nn::winograd_m(step.algo), n);
          si.bytes = in_bytes + 4.0 * static_cast<double>(act.data.size()) +
                     4.0 * static_cast<double>(cp.tk->kernel_count() *
                                               cp.tk->channels() *
                                               cp.tk->tile_area());
        } else {
          const Tensor4f in = unpack(act);
          Tensor4f y;
          t0 = Clock::now();
          if (step.algo == ConvAlgo::kIm2col) {
            y = wino::conv::conv2d_im2col(in, kern, {.pad = l.conv.pad});
            si.kind = StepInfo::kIm2col;
            span_name = "conv.im2col";
          } else if (step.algo == ConvAlgo::kInt8Im2col) {
            y = wino::quant::conv2d_im2col_int8(in, *cp.qf, l.conv.pad,
                                                step.act_scale);
            si.kind = StepInfo::kQuant;
            si.ops = static_cast<double>(l.conv.spatial_ops(n));
            span_name = "quant.im2col";
          } else if (nn::int8_winograd_m(step.algo) > 0) {
            y = wino::quant::conv2d_winograd_int8(in, *cp.qk, *cp.xf,
                                                  l.conv.pad, step.act_scale);
            si.kind = StepInfo::kQuant;
            si.ops = winograd_ops(l.conv, nn::int8_winograd_m(step.algo), n);
            span_name = "quant.winograd";
          } else {
            throw std::invalid_argument("replay: pinned plans use Winograd, "
                                        "im2col and int8 convs only");
          }
          nn::relu_inplace(y);
          t1 = Clock::now();
          // The layout pass hands every non-Winograd conv output over NCHW.
          act = pack(y, tensor::Layout::nchw(y.shape()));
        }
        ++ci;
      } else if (l.kind == LayerKind::kMaxPool) {
        t0 = Clock::now();
        act = nn::maxpool2x2_packed(act, step.output_kind, step.out_tile_m);
        t1 = Clock::now();
        si.kind = StepInfo::kPool;
      } else {
        const Tensor4f in = unpack(act);
        t0 = Clock::now();
        Tensor4f y = nn::fully_connected(in, weights.fc_weights.at(fi),
                                         weights.fc_bias.at(fi), l.fc_out);
        ++fi;
        if (fi < weights.fc_weights.size()) nn::relu_inplace(y);
        t1 = Clock::now();
        si.kind = StepInfo::kFc;
        span_name = "nn.fc";
        act = pack(y, tensor::Layout::nchw(y.shape()));
      }
      step_ms[li].push_back(ms_between(t0, t1));
      trace.add(span_name, t0, t1, root, static_cast<std::uint64_t>(rep));
    }
    const Tensor4f result = unpack(act);
    if (rep == 0) ok = same_bytes(result, expected);
    pack_ms.push_back(rep_pack);
    unpack_ms.push_back(rep_unpack);
    trace.end(root, Clock::now());
  }

  for (std::size_t li = 0; li < layers.size(); ++li) {
    const double ms = median(step_ms[li]);
    out.layers_sum_ms += ms;
    const StepInfo& si = info[li];
    if (si.kind == StepInfo::kPool) {
      out.pool_ms += ms;
      continue;
    }
    if (si.kind == StepInfo::kFc) {
      out.fc_ms += ms;
      continue;
    }
    LayerBreakdown::TowerSums& t = out.tower[tower_index(tower_of[li])];
    t.observed_conv_ms += ms;
    if (si.kind == StepInfo::kWinograd) {
      t.wino_ms += ms;
      t.wino_ops += si.ops;
      t.wino_bytes += si.bytes;
    } else if (si.kind == StepInfo::kIm2col) {
      t.im2col_ms += ms;
    } else if (si.kind == StepInfo::kQuant) {
      t.quant_ms += ms;
      t.quant_ops += si.ops;
    }
  }
  out.pack_ms += median(pack_ms);
  out.unpack_ms += median(unpack_ms);
  out.layers_sum_ms += median(pack_ms) + median(unpack_ms);
  return ok;
}

void probe_gemms(const nn::ExecutionPlan& plan, std::size_t batch,
                 LayerBreakdown& out) {
  const std::vector<std::string> tower_of = layer_towers(plan.layers);
  constexpr double kMinSeconds = 0.005;
  for (std::size_t li = 0; li < plan.layers.size(); ++li) {
    const nn::LayerSpec& l = plan.layers[li];
    const ConvAlgo algo = plan.steps[li].algo;
    if (l.kind != LayerKind::kConv ||
        (algo != ConvAlgo::kIm2col && algo != ConvAlgo::kInt8Im2col)) {
      continue;
    }
    // One GEMM per image: K x (C r^2) kernels times (C r^2) x (out pixels).
    const std::size_t m = l.conv.k;
    const std::size_t n = l.conv.out_h() * l.conv.out_w();
    const std::size_t k = l.conv.c * l.conv.r * l.conv.r;
    LayerBreakdown::TowerSums& t = out.tower[tower_index(tower_of[li])];
    std::size_t calls = 0;
    const auto t0 = Clock::now();
    if (algo == ConvAlgo::kIm2col) {
      std::vector<float> a(m * k, 0.5F), b(k * n, 0.25F), c(m * n);
      while (calls < 3 || seconds_since(t0) < kMinSeconds) {
        for (std::size_t i = 0; i < batch; ++i, ++calls) {
          wino::runtime::sgemm(m, n, k, 1.0F, a.data(), k, b.data(), n, 0.0F,
                               c.data(), n);
        }
      }
      t.sgemm_s += seconds_since(t0);
      t.sgemm_flops += 2.0 * static_cast<double>(m * n * k * calls);
    } else {
      std::vector<std::int8_t> a(m * k, 3), b(n * k, -5);
      std::vector<std::int32_t> c(m * n);
      while (calls < 3 || seconds_since(t0) < kMinSeconds) {
        for (std::size_t i = 0; i < batch; ++i, ++calls) {
          wino::runtime::igemm_nt(m, n, k, a.data(), k, b.data(), k, c.data(),
                                  n);
        }
      }
      t.igemm_s += seconds_since(t0);
      t.igemm_ops += 2.0 * static_cast<double>(m * n * k * calls);
    }
  }
}

void add_predictions(const nn::ExecutionPlan& plan, std::size_t batch,
                     LayerBreakdown& out) {
  const nn::Calibration& cal = nn::measured_calibration();
  const std::vector<std::string> tower_of = layer_towers(plan.layers);
  for (std::size_t li = 0; li < plan.layers.size(); ++li) {
    if (plan.layers[li].kind != LayerKind::kConv) continue;
    out.tower[tower_index(tower_of[li])].predicted_ms += nn::predict_layer_ms(
        plan.layers[li].conv, plan.steps[li].algo, cal, batch);
  }
}

void LayerBreakdown::report(Metrics& m, const HostInfo& host) const {
  const auto rate = [](double work, double ms) {
    return ms > 0 ? work / (ms * 1e6) : 0.0;
  };
  for (std::size_t i = 0; i < towers().size(); ++i) {
    const TowerSums& t = tower[i];
    const std::string& name = towers()[i];
    const double gflops = rate(t.wino_ops, t.wino_ms);
    const double gbs = rate(t.wino_bytes, t.wino_ms);
    // Roofline bound: the lower of the sgemm roof and the triad bandwidth
    // times the layer's computed operations per byte.
    double roof = host.sgemm_gflops_512;
    if (t.wino_bytes > 0) {
      roof = std::min(roof, host.triad_gbs * t.wino_ops / t.wino_bytes);
    }
    m.set("winograd.ms." + name, t.wino_ms, "ms");
    m.set("winograd.gflops." + name, gflops, "GFLOP/s");
    m.set("winograd.gbs." + name, gbs, "GB/s");
    m.set("winograd.roof_frac." + name, roof > 0 ? gflops / roof : 0.0,
          "ratio");
    m.set("conv.im2col.ms." + name, t.im2col_ms, "ms");
    m.set("runtime.sgemm.gflops." + name,
          t.sgemm_s > 0 ? t.sgemm_flops / t.sgemm_s * 1e-9 : 0.0, "GFLOP/s");
    m.set("quant.ms." + name, t.quant_ms, "ms");
    m.set("quant.gops." + name, rate(t.quant_ops, t.quant_ms), "GOP/s");
    m.set("runtime.igemm.gops." + name,
          t.igemm_s > 0 ? t.igemm_ops / t.igemm_s * 1e-9 : 0.0, "GOP/s");
    m.set("nn.pred_ratio." + name,
          t.predicted_ms > 0 ? t.observed_conv_ms / t.predicted_ms : 0.0,
          "ratio");
  }
  m.set("nn.pool_ms", pool_ms, "ms");
  m.set("nn.fc_ms", fc_ms, "ms");
  m.set("tensor.pack_ms", pack_ms, "ms");
  m.set("tensor.unpack_ms", unpack_ms, "ms");
  m.set("nn.layers_sum_ms", layers_sum_ms, "ms");
  m.set("nn.unattributed_ms", forward_ms - layers_sum_ms, "ms");
  m.set("runtime.sgemm.gflops_512", host.sgemm_gflops_512, "GFLOP/s");
  m.set("runtime.triad_gbs", host.triad_gbs, "GB/s");
  m.set("runtime.effective_cores", host.effective_cores, "count");
}

double median_forward_ms(const nn::ExecutionPlan& plan,
                         const nn::WeightBank& weights, const Tensor4f& x,
                         double seconds, Trace* trace) {
  Tensor4f out;
  std::vector<double> ms;
  const auto start = Clock::now();
  while (ms.size() < 5 || seconds_since(start) < seconds) {
    const auto t0 = Clock::now();
    nn::forward(plan, weights, x, out);
    const auto t1 = Clock::now();
    ms.push_back(ms_between(t0, t1));
    if (trace != nullptr) trace->add("nn.forward", t0, t1, 0, ms.size());
  }
  return median(ms);
}

std::string plan_algos(const nn::ExecutionPlan& plan) {
  std::string s;
  for (std::size_t i = 0; i < plan.layers.size(); ++i) {
    if (plan.layers[i].kind != LayerKind::kConv) continue;
    if (!s.empty()) s += ' ';
    s += nn::to_string(plan.steps[i].algo);
  }
  return s;
}

DriftProbe probe_planner(const nn::ExecutionPlan& pinned,
                         const nn::WeightBank& weights,
                         const nn::PlannerOptions& options, const Tensor4f& x) {
  DriftProbe d;
  nn::clear_measured_state();
  const auto t0 = Clock::now();
  const nn::ExecutionPlan chosen = nn::plan_execution(pinned.layers, options);
  d.plan_s = seconds_since(t0);
  d.layer_measurements =
      static_cast<double>(nn::plan_cache_stats().layer_measurements);
  d.chosen = plan_algos(chosen);
  d.matches_pinned = d.chosen == plan_algos(pinned);
  const double n = static_cast<double>(x.shape().n);
  nn::prewarm_workspaces(chosen, weights, x.shape().n);
  d.drift_ms_per_img = median_forward_ms(chosen, weights, x, 0.3, nullptr) / n;
  d.pinned_ms_per_img = median_forward_ms(pinned, weights, x, 0.3, nullptr) / n;
  return d;
}

void report_drift(const std::vector<DriftProbe>& probes, Metrics& m,
                  JsonObject& details) {
  double plan_s = 0, measurements = 0, matches = 0, drift = 0, pinned = 0;
  std::vector<std::string> chosen;
  for (const DriftProbe& d : probes) {
    plan_s += d.plan_s;
    measurements += d.layer_measurements;
    matches += d.matches_pinned ? 1.0 : 0.0;
    drift += d.drift_ms_per_img;
    pinned += d.pinned_ms_per_img;
    chosen.push_back(json_string(d.chosen));
  }
  m.set("nn.plan_execution_s", plan_s, "s");
  m.set("nn.plan_layer_measurements", measurements, "count");
  m.set("nn.plan_matches_pinned",
        probes.empty() ? 0.0 : matches / static_cast<double>(probes.size()),
        "ratio");
  m.set("nn.drift_plan_ms_per_img", drift, "ms");
  m.set("nn.pinned_plan_ms_per_img", pinned, "ms");
  details.raw("planner_drift_chosen", json_array(chosen));
}

void report_memory(const std::vector<const nn::ExecutionPlan*>& plans,
                   Metrics& m) {
  double slab = 0;
  for (const auto* p : plans) {
    slab += static_cast<double>(p->memory.peak_bytes(1));
  }
  const nn::TransformCacheStats tc = nn::transform_cache_stats();
  m.set("nn.slab_bytes_per_image", slab, "B");
  m.set("nn.workspace_bytes", static_cast<double>(nn::thread_workspace_bytes()),
        "B");
  m.set("nn.transform_cache_hits", static_cast<double>(tc.hits), "count");
  m.set("nn.transform_cache_misses", static_cast<double>(tc.misses), "count");
}

bool reset_rss_peak() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

double rss_peak_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

}  // namespace perfbench
