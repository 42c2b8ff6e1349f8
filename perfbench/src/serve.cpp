// serve-mix: an InferenceServer serving two models about 4x apart in cost,
// driven by one generator thread: an open-loop Poisson phase at a light
// rate, one at a heavy rate, then a closed-loop saturation phase.
//
// The two rates are absolute constants. They were fixed once from the
// saturation throughput measured on the reference host (README.md) and
// are never derived from the build under test: a faster build must face
// the same offered load, or its latencies could not be compared.
#include "workloads.hpp"

#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>

#include "common/random.hpp"
#include "models.hpp"
#include "nn/forward.hpp"
#include "nn/plan.hpp"
#include "serve/inference_server.hpp"

namespace perfbench {
namespace {

namespace nn = wino::nn;
namespace serve = wino::serve;
using wino::tensor::Tensor4f;

/// Small and large model; plans are the seed planner's most frequent picks
/// for each at 1 pool thread (README.md). Traffic is 3:1 small:large.
const ModelDef kModels[2] = {
    {"vgg16_d_scaled(28,8)",
     28,
     {"im2col", "w4", "w4", "w4", "w2", "w2", "w2", "w2", "w2", "w2", "w2",
      "w2", "w2"},
     2},
    {"vgg16_d_scaled(14,8)",
     14,
     {"im2col", "w4", "w4", "w4", "w4", "w4", "w4", "w2", "w2", "w2", "w2",
      "w2", "w2"},
     3},
};

constexpr double kLightRate = 400.0;  ///< req/s, ~10% of saturation
constexpr double kHeavyRate = 700.0;  ///< req/s, ~17% of saturation
constexpr std::size_t kWindow = 32;    ///< closed-loop outstanding requests
constexpr std::size_t kPoolImages = 64;  ///< distinct images per model
constexpr std::size_t kErrorImages = 512;  ///< rel_error set per model
constexpr double kLargeShare = 0.25;  ///< traffic is 3:1 small:large
constexpr double kWarmupSeconds = 0.5;
constexpr int kSetupReps = 15;

enum Phase : std::uint8_t { kWarmup, kLight, kHeavy, kSaturation, kPhases };
const char* const kPhaseNames[] = {"warmup", "light", "heavy", "saturation"};

/// One request's record. The generator writes due/submit/submitted, the
/// batcher thread assembled/batch, the collector done/threw.
struct Slot {
  Clock::time_point due, submit, submitted, assembled, done;
  std::future<Tensor4f> future;
  std::uint32_t batch = 0;
  std::uint16_t image = 0;
  std::uint8_t model = 0;
  std::uint8_t phase = 0;
  bool ready = false;  ///< future stored (guarded by Harness::mu)
  bool refused = false;
  bool threw = false;
};

/// One executed batch: its execute start, model and size, and the time of
/// the reference work (host.hpp) the worker ran right after the start,
/// before the batch.
struct Execution {
  Clock::time_point start;
  serve::ModelId model = 0;
  std::size_t images = 0;
  double ref_ms = 0;
};

/// Client-side bookkeeping around the server: request slots, the server's
/// assembly and execute-start observers, and the collector thread that
/// resolves futures in assembly order and checks each response as it
/// arrives. With one worker, batches execute in assembly order, so waiting
/// on futures in that order timestamps each completion as it happens.
///
/// Open-loop requests keep a slot each (one per scheduled arrival), as
/// their timestamps are read after the phase. The saturation phase reuses
/// kWindow slots and keeps only completion counts per rate window, so the
/// harness's memory does not grow with the build's speed.
class Harness {
 public:
  explicit Harness(std::size_t open_slots)
      : slots_(open_slots + kWindow), open_slots_(open_slots) {
    for (std::size_t i = slots_.size(); i > open_slots; --i) {
      free_.push_back(i - 1);
    }
  }
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;
  ~Harness() { stop(); }

  void on_assembled(const std::vector<serve::BatchRequestInfo>& batch) {
    const auto now = Clock::now();
    {
      std::lock_guard lk(mu_);
      const std::uint32_t id = batches_++;
      for (const auto& info : batch) {
        Slot& s = slots_[info.tag];
        s.assembled = now;
        s.batch = id;
        assembled_.push_back(info.tag);
      }
    }
    cv_.notify_all();
  }

  void on_execute(serve::ModelId model, std::size_t images) {
    const auto now = Clock::now();
    const double ref = reference_ms();
    std::lock_guard lk(mu_);
    executions_.push_back({now, model, images, ref});
  }

  /// Starts the collector, which compares every response with
  /// refs[model][image]; `refs` must outlive stop().
  void start(const std::vector<Tensor4f> (&refs)[2]) {
    refs_ = refs;
    collector_ = std::thread([this] { collect(); });
  }

  void stop() {
    {
      std::lock_guard lk(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (collector_.joinable()) collector_.join();
  }

  [[nodiscard]] std::size_t open_slots() const { return open_slots_; }
  Slot& slot(std::size_t tag) { return slots_[tag]; }

  void publish(std::size_t tag, std::future<Tensor4f> f) {
    {
      std::lock_guard lk(mu_);
      slots_[tag].future = std::move(f);
      slots_[tag].ready = true;
      ++outstanding_;
    }
    cv_.notify_all();
  }

  void wait_idle() {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return outstanding_ == 0; });
  }

  /// Waits until fewer than kWindow requests are outstanding and returns a
  /// free saturation slot; give it back with release() if never published.
  std::size_t acquire_saturation_slot() {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return outstanding_ < kWindow && !free_.empty(); });
    const std::size_t tag = free_.back();
    free_.pop_back();
    return tag;
  }

  void release(std::size_t tag) {
    std::lock_guard lk(mu_);
    slots_[tag] = Slot{};
    free_.push_back(tag);
  }

  /// The batches executed so far, in execution order, which with one
  /// worker is assembly order (valid once the server is idle).
  std::vector<Execution> executions() {
    std::lock_guard lk(mu_);
    return executions_;
  }

  /// Responses per phase that resolved with an exception or differed from
  /// their reference (valid after stop()).
  std::uint64_t threw(Phase p) const { return threw_[p]; }
  std::uint64_t wrong(Phase p) const { return wrong_[p]; }

 private:
  void collect() {
    for (;;) {
      std::unique_lock lk(mu_);
      cv_.wait(lk, [&] {
        return (!assembled_.empty() && slots_[assembled_.front()].ready) ||
               (stopping_ && assembled_.empty());
      });
      if (assembled_.empty()) return;
      const std::uint64_t tag = assembled_.front();
      assembled_.pop_front();
      std::future<Tensor4f> f = std::move(slots_[tag].future);
      lk.unlock();
      Slot& s = slots_[tag];
      bool wrong = false;
      try {
        const Tensor4f out = f.get();
        s.done = Clock::now();
        wrong = !same_bytes(out, refs_[s.model][s.image]);
      } catch (...) {
        s.done = Clock::now();
        s.threw = true;
      }
      lk.lock();
      threw_[s.phase] += s.threw ? 1 : 0;
      wrong_[s.phase] += wrong ? 1 : 0;
      if (s.phase == kSaturation) {
        s = Slot{};
        free_.push_back(tag);
      }
      --outstanding_;
      lk.unlock();
      cv_.notify_all();
    }
  }

  std::vector<Slot> slots_;
  const std::size_t open_slots_;
  const std::vector<Tensor4f>* refs_ = nullptr;  ///< [model][image]
  std::mutex mu_;  ///< guards everything below and Slot::future / ready
  std::condition_variable cv_;
  std::deque<std::uint64_t> assembled_;
  std::vector<Execution> executions_;
  std::vector<std::size_t> free_;  ///< unused saturation slots
  std::uint64_t threw_[kPhases] = {};
  std::uint64_t wrong_[kPhases] = {};
  std::uint32_t batches_ = 0;
  std::size_t outstanding_ = 0;
  bool stopping_ = false;
  std::thread collector_;  // last: joined before the members it uses die
};

struct Session {
  std::unique_ptr<Harness> harness;
  std::unique_ptr<serve::InferenceServer> server;
  serve::ModelId ids[2] = {0, 0};
};

/// Process start to first request: weights and pinned plans for both
/// models, server construction and registration (which prewarms each
/// plan's workspaces).
Session set_up(std::size_t open_slots) {
  nn::clear_transform_cache();
  Session s;
  s.harness = std::make_unique<Harness>(open_slots);
  Harness* h = s.harness.get();
  serve::ServerConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_us = 2000;
  cfg.worker_threads = 1;
  cfg.batch_detail_observer =
      [h](serve::ModelId, const std::vector<serve::BatchRequestInfo>& b) {
        h->on_assembled(b);
      };
  cfg.batch_observer = [h](serve::ModelId model, std::size_t images) {
    h->on_execute(model, images);
  };
  s.server = std::make_unique<serve::InferenceServer>(cfg);
  for (int i = 0; i < 2; ++i) {
    const auto layers = kModels[i].layers();
    nn::WeightBank w = nn::random_weights(layers, kModels[i].weight_seed);
    s.ids[i] = s.server->add_model(kModels[i].name,
                                   pinned_plan(kModels[i], layers, nullptr),
                                   std::move(w));
  }
  return s;
}

struct Arrival {
  double offset_s = 0;
  std::uint8_t model = 0;
  std::uint8_t priority = 0;
  std::uint16_t image = 0;
};

Arrival draw(wino::common::Rng& rng) {
  Arrival a;
  a.model = rng.uniform_int(0, 3) == 0 ? 1 : 0;  // kLargeShare
  a.priority = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  a.image = static_cast<std::uint16_t>(rng.uniform_int(0, kPoolImages - 1));
  return a;
}

std::vector<Arrival> poisson(double rate, double seconds,
                             wino::common::Rng& rng) {
  std::exponential_distribution<double> gap(rate);
  std::vector<Arrival> out;
  for (double t = gap(rng.engine()); t < seconds; t += gap(rng.engine())) {
    Arrival a = draw(rng);
    a.offset_s = t;
    out.push_back(a);
  }
  return out;
}

using Range = std::pair<std::size_t, std::size_t>;

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// What the saturation phase measured.
struct Saturation {
  std::size_t requests = 0;
  double wall_img_s = 0;  ///< completions per second of the phase's wall time
  ScaledTimes per_image[2];         ///< per-image service times per model
  double ms_per_image[2] = {0, 0};  ///< their figure at reference speed
  double img_s = 0;                 ///< at the traffic mix
};

class Generator {
 public:
  Generator(Session& s, const std::vector<Tensor4f> (&pool)[2], RunResult& r)
      : s_(s), h_(*s.harness), pool_(pool), r_(r) {}

  /// Open loop: each request is submitted at its scheduled due time,
  /// whatever the server's state; latency is measured from that due time.
  /// Returns the phase's slots.
  Range open_loop(Phase phase, const std::vector<Arrival>& arrivals) {
    const std::size_t first = next_;
    const auto t0 = Clock::now() + std::chrono::milliseconds(1);
    for (const Arrival& a : arrivals) {
      const auto due = t0 + to_duration(a.offset_s);
      std::this_thread::sleep_until(due);
      if (next_ >= h_.open_slots()) {
        throw std::logic_error("more arrivals than open-loop slots");
      }
      submit(phase, due, a, next_++);
    }
    h_.wait_idle();
    return {first, next_};
  }

  /// Closed loop: keeps kWindow requests outstanding for `seconds`. The
  /// worker then always has a batch waiting, so the time from one batch's
  /// execute start to the next, less the reference work run at the first,
  /// is that batch's service time. Each model's per-image service time is
  /// taken at reference speed over its batches after a 10% ramp
  /// (host.hpp); the throughput is the rate those two give at the traffic
  /// mix.
  Saturation closed_loop(double seconds, wino::common::Rng& rng) {
    Saturation sat;
    const std::size_t first = h_.executions().size();
    const auto start = Clock::now();
    const auto ramped = start + to_duration(0.1 * seconds);
    const auto end = start + to_duration(seconds);
    while (Clock::now() < end) {
      const std::size_t tag = h_.acquire_saturation_slot();
      submit(kSaturation, Clock::now(), draw(rng), tag);
      ++sat.requests;
    }
    h_.wait_idle();
    sat.wall_img_s = static_cast<double>(sat.requests) / seconds_since(start);
    const std::vector<Execution> ex = h_.executions();
    for (std::size_t i = first; i + 1 < ex.size(); ++i) {
      if (ex[i].start < ramped || ex[i + 1].start > end) continue;
      const double service = ms_between(ex[i].start, ex[i + 1].start) -
                             ex[i].ref_ms;
      sat.per_image[ex[i].model == s_.ids[1] ? 1 : 0].add(
          service / static_cast<double>(ex[i].images), ex[i].ref_ms);
    }
    for (int m = 0; m < 2; ++m) sat.ms_per_image[m] = sat.per_image[m].ms();
    sat.img_s = 1000.0 / ((1.0 - kLargeShare) * sat.ms_per_image[0] +
                          kLargeShare * sat.ms_per_image[1]);
    return sat;
  }

 private:
  void submit(Phase phase, Clock::time_point due, const Arrival& a,
              std::size_t tag) {
    r_.accounting.attempt(kPhaseNames[phase]);
    Slot& sl = h_.slot(tag);
    sl.due = due;
    sl.model = a.model;
    sl.image = a.image;
    sl.phase = phase;
    Tensor4f image = pool_[a.model][a.image];
    sl.submit = Clock::now();
    try {
      auto f = s_.server->submit(s_.ids[a.model], std::move(image),
                                 {.priority = a.priority,
                                  .deadline_us = 0,
                                  .tag = tag});
      sl.submitted = Clock::now();
      h_.publish(tag, std::move(f));
    } catch (const std::exception& e) {
      r_.accounting.fail(kPhaseNames[phase], e.what());
      if (phase == kSaturation) {
        h_.release(tag);
      } else {
        sl.refused = true;
      }
    }
  }

  Session& s_;
  Harness& h_;
  const std::vector<Tensor4f> (&pool_)[2];
  RunResult& r_;
  std::size_t next_ = 0;
};

/// Counts the responses that resolved with an exception or differed from
/// their image's direct forward(plan), per phase.
void count_failed_responses(const Harness& h, RunResult& r) {
  for (int p = 0; p < kPhases; ++p) {
    const auto phase = static_cast<Phase>(p);
    if (h.threw(phase) > 0) {
      r.accounting.fail(kPhaseNames[p], "future resolved with an exception",
                        h.threw(phase));
    }
    if (h.wrong(phase) > 0) {
      r.accounting.fail(kPhaseNames[p], "response differs from direct forward",
                        h.wrong(phase));
    }
  }
}

/// Each answered request's latency from its due time. Scaled: wall clock
/// until its batch's execute start (generator lateness, the batcher's
/// max_wait_us, queueing), then its batch's execution without the
/// reference work, at reference speed (host.hpp). Otherwise wall clock
/// throughout.
std::vector<double> due_latencies_ms(Harness& h, Range range, bool scaled) {
  const std::vector<Execution> ex = h.executions();
  std::vector<double> ms;
  for (std::size_t i = range.first; i < range.second; ++i) {
    const Slot& s = h.slot(i);
    if (s.refused || s.threw) continue;
    if (!scaled) {
      ms.push_back(ms_between(s.due, s.done));
      continue;
    }
    const Execution& e = ex.at(s.batch);
    const double run = ms_between(e.start, s.done) - e.ref_ms;
    ms.push_back(ms_between(s.due, e.start) + run * kReferenceMs / e.ref_ms);
  }
  return ms;
}

/// serve.* layer metrics of the heavy phase (generator lateness over both
/// open-loop phases), and one span tree per open-loop request.
ServeLayers serve_layers(Harness& h, Range heavy, Range open, Trace& trace) {
  const std::vector<Execution> ex = h.executions();
  std::vector<double> queue, dispatch, execute, submit_us, late;
  std::vector<std::uint32_t> batches;
  for (std::size_t i = heavy.first; i < heavy.second; ++i) {
    const Slot& s = h.slot(i);
    if (s.refused) continue;
    const auto exec = ex.at(s.batch).start;
    queue.push_back(ms_between(s.submit, s.assembled));
    dispatch.push_back(ms_between(s.assembled, exec));
    execute.push_back(ms_between(exec, s.done) - ex.at(s.batch).ref_ms);
    submit_us.push_back(1000.0 * ms_between(s.submit, s.submitted));
    batches.push_back(s.batch);
  }
  // Phases drain before the next starts, so no batch straddles two.
  const auto requests = static_cast<double>(batches.size());
  std::sort(batches.begin(), batches.end());
  batches.erase(std::unique(batches.begin(), batches.end()), batches.end());
  for (std::size_t i = open.first; i < open.second; ++i) {
    late.push_back(ms_between(h.slot(i).due, h.slot(i).submit));
  }
  ServeLayers l;
  l.queue_wait_ms_p50 = percentile(queue, 0.5);
  l.queue_wait_ms_p99 = percentile(queue, 0.99);
  l.dispatch_wait_ms = percentile(dispatch, 0.5);
  l.execute_ms_p50 = percentile(execute, 0.5);
  l.execute_ms_p99 = percentile(execute, 0.99);
  l.batch_mean =
      batches.empty() ? 0.0 : requests / static_cast<double>(batches.size());
  l.submit_us_p99 = percentile(submit_us, 0.99);
  l.gen_late_ms_p99 = percentile(late, 0.99);
  l.gen_late_ms_max = percentile(late, 1.0);

  for (std::size_t i = open.first; i < open.second; ++i) {
    const Slot& s = h.slot(i);
    if (s.refused) continue;
    const auto exec = ex.at(s.batch).start;
    const auto run = exec + to_duration(ex.at(s.batch).ref_ms / 1000.0);
    const std::uint64_t id = trace.add("serve.request", s.due, s.done, 0, i);
    trace.add("serve.generator_late", s.due, s.submit, id, i);
    trace.add("serve.submit", s.submit, s.submitted, id, i);
    trace.add("serve.queue_wait", s.submit, s.assembled, id, i);
    trace.add("serve.dispatch_wait", s.assembled, exec, id, i);
    trace.add("perfbench.reference", exec, run, id, i);
    trace.add("serve.execute", run, s.done, id, i);
  }
  return l;
}

}  // namespace

void ServeLayers::report(Metrics& m) const {
  m.set("serve.queue_wait_ms_p50", queue_wait_ms_p50, "ms");
  m.set("serve.queue_wait_ms_p99", queue_wait_ms_p99, "ms");
  m.set("serve.dispatch_wait_ms", dispatch_wait_ms, "ms");
  m.set("serve.execute_ms_p50", execute_ms_p50, "ms");
  m.set("serve.execute_ms_p99", execute_ms_p99, "ms");
  m.set("serve.batch_mean", batch_mean, "count");
  m.set("serve.submit_us_p99", submit_us_p99, "us");
  m.set("serve.gen_late_ms_p99", gen_late_ms_p99, "ms");
  m.set("serve.gen_late_ms_max", gen_late_ms_max, "ms");
  m.set("serve.latency_p99_ms", latency_p99_ms, "ms");
  m.set("serve.latency_p99_ms_heavy", latency_p99_ms_heavy, "ms");
}

RunResult run_serve(const Args& args) {
  RunResult r;
  Metrics& m = r.metrics;
  const double S = args.seconds;
  // Phase lengths as shares of --seconds; the traced run shortens the
  // saturation phase to leave time for the layer replay.
  const double light_s = 0.35 * S;
  const double heavy_s = 0.35 * S;
  const double sat_s = args.trace ? 0.15 * S : 0.3 * S;

  wino::common::Rng rng(mix_seed(args.seed, 2));
  const std::vector<Arrival> warm = poisson(kLightRate, kWarmupSeconds, rng);
  const std::vector<Arrival> light = poisson(kLightRate, light_s, rng);
  const std::vector<Arrival> heavy = poisson(kHeavyRate, heavy_s, rng);
  const std::size_t open_slots = warm.size() + light.size() + heavy.size();

  Trace trace(args.trace);
  // Declared before the session: the harness's collector reads `refs`
  // until the session is destroyed.
  std::vector<Tensor4f> pool[2];
  std::vector<Tensor4f> refs[2];
  ScaledTimes setup;
  std::optional<Session> session;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    session.reset();
    const auto t0 = Clock::now();
    session.emplace(set_up(open_slots));
    setup.add(ms_between(t0, Clock::now()), reference_ms());
  }
  Session& s = *session;
  Harness& h = *s.harness;

  // Seeded image pools and their references, computed outside the timing:
  // each image's direct forward(plan), which every served response must
  // equal byte for byte.
  double err = 0;
  r.accounting.attempt("checks", 2);
  for (int i = 0; i < 2; ++i) {
    const nn::ExecutionPlan& plan = s.server->model_plan(s.ids[i]);
    const nn::WeightBank& w = s.server->model_weights(s.ids[i]);
    const Tensor4f batch =
        random_batch(kModels[i], kPoolImages, mix_seed(args.seed, 10 + i));
    pool[i] = nn::unstack_images(batch);
    for (const Tensor4f& x : pool[i]) refs[i].push_back(nn::forward(plan, w, x));
    const bool exact = same_bytes(nn::forward(plan, w, batch),
                                  nn::forward_reference(plan, w, batch));
    r.check(exact, kModels[i].name + ": forward(plan) == forward_reference");
    if (!exact) r.accounting.fail("checks", "forward != forward_reference");
    // Output quality against the fp32 im2col oracle on the fixed evaluation
    // set; the reported figure is the worse model's worst batch.
    err = std::max(err,
                   rel_error(kModels[i], plan, w, kErrorImages, kEvaluationSeed));
  }

  h.start(refs);
  Generator d(s, pool, r);
  // rss_peak_mib covers the serving phases only, not set-up or the checks.
  r.check(reset_rss_peak(), "VmHWM reset before the serving phases");
  d.open_loop(kWarmup, warm);
  const Range light_range = d.open_loop(kLight, light);
  const Range heavy_range = d.open_loop(kHeavy, heavy);
  const Saturation sat = d.closed_loop(sat_s, rng);
  const double rss = rss_peak_mib();
  s.server->shutdown();
  h.stop();

  count_failed_responses(h, r);
  const LatencySummary ls = summarize(due_latencies_ms(h, light_range, true));
  const LatencySummary hs = summarize(due_latencies_ms(h, heavy_range, true));
  r.details.str("small_model", kModels[0].name)
      .str("large_model", kModels[1].name)
      .str("small_plan", plan_algos(s.server->model_plan(s.ids[0])))
      .str("large_plan", plan_algos(s.server->model_plan(s.ids[1])))
      .num("light_rate_req_s", kLightRate)
      .num("heavy_rate_req_s", kHeavyRate)
      .num("saturation_window", kWindow)
      .num("saturation_requests", static_cast<double>(sat.requests))
      .num("saturation_wall_img_s", sat.wall_img_s)
      .raw("saturation_small_per_image", sat.per_image[0].dump())
      .raw("saturation_large_per_image", sat.per_image[1].dump())
      .raw("setup", setup.dump())
      .raw("latency_light", ls.dump())
      .raw("latency_heavy", hs.dump())
      .raw("wall_latency_light",
           summarize(due_latencies_ms(h, light_range, false)).dump())
      .raw("wall_latency_heavy",
           summarize(due_latencies_ms(h, heavy_range, false)).dump());

  if (!args.trace) {
    m.set("setup_s", setup.ms() / 1000.0, "s");
    m.set("throughput_img_s", sat.img_s, "img/s");
    m.set("latency_ms", ls.p50, "ms");
    m.set("latency_ms_heavy", hs.p50, "ms");
    m.set("rss_peak_mib", rss, "MiB");
    m.set("rel_error", err, "ratio");
    r.details.raw("host", measure_host().json.dump());
    return r;
  }

  ServeLayers sl = serve_layers(h, heavy_range,
                                {light_range.first, heavy_range.second}, trace);
  sl.latency_p99_ms = ls.tail;
  sl.latency_p99_ms_heavy = hs.tail;
  sl.report(m);
  // The harness takes the same timestamps whether traced or not and builds
  // spans from them after the phases, so tracing adds no work on the
  // request path.
  m.set("trace.overhead_ms", 0.0, "ms");

  // Layer attribution: replay both models' plans at batch 8.
  LayerBreakdown lb;
  std::vector<DriftProbe> drift;
  std::vector<const nn::ExecutionPlan*> plans;
  for (int i = 0; i < 2; ++i) {
    const nn::ExecutionPlan& plan = s.server->model_plan(s.ids[i]);
    const nn::WeightBank& w = s.server->model_weights(s.ids[i]);
    plans.push_back(&plan);
    const Tensor4f x = random_batch(kModels[i], 8, mix_seed(args.seed, 20 + i));
    const Tensor4f expected = nn::forward(plan, w, x);
    nn::prewarm_workspaces(plan, w, 8);
    lb.forward_ms += median_forward_ms(plan, w, x, 0.05 * S, nullptr);
    r.accounting.attempt("replay");
    const bool ok = replay_plan(plan, w, x, expected, 0.05 * S, trace, lb);
    r.check(ok, kModels[i].name + ": replay == forward(plan), batch 8");
    if (!ok) r.accounting.fail("replay", "replay output differs");
    probe_gemms(plan, 8, lb);
    drift.push_back(probe_planner(plan, w, {}, x));
  }
  report_drift(drift, m, r.details);
  for (const auto* plan : plans) add_predictions(*plan, 8, lb);
  report_memory(plans, m);
  const HostInfo host = measure_host();
  lb.report(m, host);
  m.set("trace.spans", static_cast<double>(trace.size()), "count");
  r.details.raw("host", host.json.dump());
  const std::string path = args.out_dir + "/" + args.workload + ".spans.jsonl";
  r.check(trace.write_jsonl(path), "spans written to " + path);
  return r;
}

}  // namespace perfbench
