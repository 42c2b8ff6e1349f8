// offline-fp32 and offline-int8: closed loops of nn::forward(plan) on one
// caller thread over vgg16_d_scaled(7, 8) at 32x32, each under a plan
// pinned here rather than chosen by the (timing-dependent) planner.
#include "workloads.hpp"

#include <algorithm>
#include <optional>

#include "models.hpp"
#include "nn/forward.hpp"
#include "nn/plan.hpp"

namespace perfbench {
namespace {

namespace nn = wino::nn;
using wino::tensor::Tensor4f;

/// The seed's measured planner most often picks im2col on conv1_1, F(4x4)
/// on conv1_2-conv4 and F(2x2) on conv5 for this model at 1 pool thread
/// (11 of 12 cold processes on the reference host; see README.md).
const ModelDef kFp32Model{"vgg16_d_scaled(7,8) fp32",
                          7,
                          {"im2col", "w4", "w4", "w4", "w4", "w4", "w4",
                           "w4", "w4", "w4", "w2", "w2", "w2"},
                          1};

/// Every conv layer int8: F(2x2) int8 where predict_layer_rel_error <= 0.10
/// under the calibration below, int8 im2col elsewhere.
const ModelDef kInt8Model{"vgg16_d_scaled(7,8) int8",
                          7,
                          {"i8w2", "int8", "int8", "int8", "int8", "int8",
                           "int8", "i8w2", "int8", "int8", "i8w2", "int8",
                           "int8"},
                          1};

constexpr std::size_t kBatch = 8;
constexpr std::size_t kHeavyBatch = 32;
constexpr std::size_t kErrorImages = 512;  ///< per rel_error set: 64 batches of 8
constexpr double kInt8ErrorBudget = 0.10;
/// The calibration sample is part of the int8 model's definition, so its
/// static activation scales are the same in every run; it is drawn from a
/// stream no run seed shares.
constexpr std::uint64_t kCalibrationSeed = 0xCA11B7A7E;
constexpr std::size_t kCalibrationImages = 16;
constexpr int kSetupReps = 15;

struct Session {
  std::vector<nn::LayerSpec> layers;
  nn::WeightBank weights;
  std::optional<nn::QuantCalibration> quant;
  nn::ExecutionPlan plan;
};

/// Everything between process start and the first timed forward: weights,
/// calibration, the pinned plan with its memory plan, and warm workspaces.
Session set_up(const ModelDef& def, bool int8) {
  nn::clear_transform_cache();
  Session s;
  s.layers = def.layers();
  s.weights = nn::random_weights(s.layers, def.weight_seed);
  if (int8) {
    s.quant = nn::calibrate_activations(
        s.layers, s.weights,
        random_batch(def, kCalibrationImages, kCalibrationSeed));
  }
  s.plan = pinned_plan(def, s.layers, s.quant ? &*s.quant : nullptr);
  nn::prewarm_workspaces(s.plan, s.weights, kHeavyBatch);
  return s;
}

/// Closed loop of forward(plan) over `inputs` in turn for `seconds`. Each
/// call is timed, then the reference work, then the call's output is
/// compared with its precomputed reference. Returns the call times in call
/// order, each paired with its reference time.
ScaledTimes closed_loop(const Session& s, const std::vector<Tensor4f>& inputs,
                        const std::vector<Tensor4f>& refs, double seconds,
                        const std::string& phase, RunResult& r) {
  ScaledTimes ms;
  Tensor4f out;
  const auto start = Clock::now();
  for (std::size_t i = 0;
       ms.raw().size() < 5 || seconds_since(start) < seconds; ++i) {
    const std::size_t k = i % inputs.size();
    r.accounting.attempt(phase);
    try {
      const auto t0 = Clock::now();
      nn::forward(s.plan, s.weights, inputs[k], out);
      const auto t1 = Clock::now();
      ms.add(ms_between(t0, t1), reference_ms());
      if (!same_bytes(out, refs[k])) {
        r.accounting.fail(phase, "output differs from forward_reference");
      }
    } catch (const std::exception& e) {
      r.accounting.fail(phase, e.what());
    }
  }
  return ms;
}

}  // namespace

RunResult run_offline(const Args& args, bool int8) {
  RunResult r;
  const ModelDef& def = int8 ? kInt8Model : kFp32Model;
  Metrics& m = r.metrics;

  ScaledTimes setup;
  std::optional<Session> session;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    session.reset();
    const auto t0 = Clock::now();
    session.emplace(set_up(def, int8));
    setup.add(ms_between(t0, Clock::now()), reference_ms());
  }
  const Session& s = *session;

  // Inputs: 32 seeded images; the light loop cycles through their four
  // batch-8 slices, the heavy loop runs all 32 at once.
  const Tensor4f images = random_batch(def, kHeavyBatch, mix_seed(args.seed, 1));
  const std::vector<Tensor4f> singles = nn::unstack_images(images);
  std::vector<Tensor4f> light;
  for (std::size_t i = 0; i < kHeavyBatch; i += kBatch) {
    std::vector<const Tensor4f*> group;
    for (std::size_t j = i; j < i + kBatch; ++j) group.push_back(&singles[j]);
    light.push_back(nn::stack_images(group));
  }
  std::vector<Tensor4f> light_refs;
  for (const Tensor4f& x : light) {
    light_refs.push_back(nn::forward_reference(s.plan, s.weights, x));
  }
  const std::vector<Tensor4f> heavy{images};
  const std::vector<Tensor4f> heavy_refs{
      nn::forward_reference(s.plan, s.weights, images)};

  r.accounting.attempt("checks", 2);
  const bool bitexact =
      same_bytes(nn::forward(s.plan, s.weights, images), heavy_refs[0]);
  r.check(bitexact, "forward(plan) == forward_reference(plan), 32 images");
  if (!bitexact) r.accounting.fail("checks", "forward != forward_reference");
  // Output quality against the fp32 im2col oracle: the worst batch of 8 of
  // the fixed evaluation set.
  const double err =
      rel_error(def, s.plan, s.weights, kErrorImages, kEvaluationSeed);
  if (int8) {
    // The bound is meant to hold for every batch, so it is checked on the
    // fixed set and on a second set drawn from the run seed.
    const double seeded = rel_error(def, s.plan, s.weights, kErrorImages,
                                    mix_seed(args.seed, 2));
    const double worst = std::max(err, seeded);
    const bool within = worst <= s.plan.predicted_max_rel_error &&
                        worst <= kInt8ErrorBudget;
    r.check(within, "int8 worst-batch rel_error " + json_number(err) +
                        " (fixed set), " + json_number(seeded) +
                        " (seeded set) <= predicted " +
                        json_number(s.plan.predicted_max_rel_error) +
                        " and <= 0.10");
    if (!within) r.accounting.fail("checks", "int8 rel_error over bound");
    r.details.num("rel_error_seeded_set", seeded);
    // The pinned int8 plan restates a rule; record whether the rule, applied
    // under the current error model, still yields it.
    std::vector<std::string> rule;
    std::size_t ci = 0;
    for (const auto& l : s.layers) {
      if (l.kind != nn::LayerKind::kConv) continue;
      rule.push_back(nn::predict_layer_rel_error(
                         l.conv, nn::ConvAlgo::kInt8Winograd2,
                         &s.quant->conv_inputs[ci++]) <= kInt8ErrorBudget
                         ? "i8w2"
                         : "int8");
    }
    r.details.boolean("int8_rule_matches_pinned", rule == def.algos);
  }
  r.details.str("model", def.name)
      .str("pinned_plan", plan_algos(s.plan))
      .num("predicted_max_rel_error", s.plan.predicted_max_rel_error)
      .num("rel_error_images", kErrorImages)
      .num("batch", kBatch)
      .num("heavy_batch", kHeavyBatch);

  Tensor4f warm;
  for (int i = 0; i < 10; ++i) nn::forward(s.plan, s.weights, light[0], warm);

  if (!args.trace) {
    // rss_peak_mib covers the timed loops only, not set-up or the checks.
    r.check(reset_rss_peak(), "VmHWM reset before the timed loops");
    const ScaledTimes l =
        closed_loop(s, light, light_refs, 0.5 * args.seconds, "light", r);
    const ScaledTimes h =
        closed_loop(s, heavy, heavy_refs, 0.5 * args.seconds, "heavy", r);
    // Times at reference speed (host.hpp); throughput is that of a
    // batch-32 call.
    m.set("setup_s", setup.ms() / 1000.0, "s");
    m.set("throughput_img_s", 1000.0 * kHeavyBatch / h.ms(), "img/s");
    m.set("latency_ms", l.ms(), "ms");
    m.set("latency_ms_heavy", h.ms(), "ms");
    m.set("rss_peak_mib", rss_peak_mib(), "MiB");
    m.set("rel_error", err, "ratio");
    r.details.raw("setup", setup.dump())
        .raw("scaled_light", l.dump())
        .raw("scaled_heavy", h.dump())
        .raw("latency_light", summarize(l.raw()).dump())
        .raw("latency_heavy", summarize(h.raw()).dump());
    r.details.raw("host", measure_host().json.dump());
    return r;
  }

  // Traced run: untraced and traced forward loops (their difference is the
  // tracing overhead), the step-by-step replay, GEMM probes at the plan's
  // shapes, and the planner-drift probe.
  Trace trace(true);
  LayerBreakdown lb;
  const Tensor4f& x = light[0];
  lb.forward_ms = median_forward_ms(s.plan, s.weights, x, 0.2 * args.seconds,
                                    nullptr);
  const double traced_ms =
      median_forward_ms(s.plan, s.weights, x, 0.15 * args.seconds, &trace);
  r.accounting.attempt("replay");
  const bool replay_ok =
      replay_plan(s.plan, s.weights, x, nn::forward(s.plan, s.weights, x),
                  0.3 * args.seconds, trace, lb);
  r.check(replay_ok, "step-by-step replay == forward(plan), batch 8");
  if (!replay_ok) r.accounting.fail("replay", "replay output differs");
  probe_gemms(s.plan, kBatch, lb);

  nn::PlannerOptions opts;
  if (int8) {
    opts.candidates = nn::quantized_candidates();
    opts.constraints.max_rel_error = kInt8ErrorBudget;
    opts.quant = s.quant;
  }
  report_drift({probe_planner(s.plan, s.weights, opts, x)}, m, r.details);
  add_predictions(s.plan, kBatch, lb);
  report_memory({&s.plan}, m);

  const HostInfo host = measure_host();
  lb.report(m, host);
  ServeLayers{}.report(m);
  m.set("trace.overhead_ms", traced_ms - lb.forward_ms, "ms");
  m.set("trace.spans", static_cast<double>(trace.size()), "count");
  r.details.raw("host", host.json.dump());
  r.details.raw("setup", setup.dump());
  const std::string path = args.out_dir + "/" + args.workload + ".spans.jsonl";
  r.check(trace.write_jsonl(path), "spans written to " + path);
  return r;
}

}  // namespace perfbench
