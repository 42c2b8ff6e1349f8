// Naive vs blocked vs blocked+SIMD SGEMM across VGG-16 layer shapes, plus
// thread scaling — the perf trajectory for the shared GEMM core under every
// conv backend. Emits a machine-readable BENCH_gemm.json next to the
// stdout tables.
//
//   variants (single thread):
//     naive      sgemm_naive — the triple loop with a per-element
//                accumulator (the correctness reference)
//     ikj        the pre-PR2 in-repo GEMM loop order (row-streaming,
//                auto-vectorisable) for an honest middle baseline
//     blocked    the cache-blocked packed core, scalar micro-kernel forced
//     blocked+SIMD  the same core with the dispatched micro-kernel
//                   (sgemm_kernel_name(): avx2/neon; equals "blocked" when
//                   the registry dispatches the scalar micro-kernel)
//
//   igemm section (informational, no gate): runtime::igemm_nt GOP/s with
//   the dispatched blocked micro-kernel (kAuto, igemm_kernel_name()) and
//   the widening scalar oracle (kScalar), single thread, at the int8
//   im2col GEMM shapes of the quick scaled VGG-16 (m = output channels,
//   n = output pixels, k = C * 3 * 3).
//
// Usage: gemm_kernels [--quick] [--out <path>]
//   --quick shrinks the VGG shapes for CI smoke (the square-512 reference
//           point is kept full-size so the perf-regression gate always
//           tracks the same 512^3 number)
//   --out   overrides the JSON artifact path (default: next to the binary)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/bench_io.hpp"
#include "common/random.hpp"
#include "common/table.hpp"
#include "runtime/gemm.hpp"
#include "runtime/igemm.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using wino::runtime::GemmKernel;

struct Shape {
  std::string name;
  std::size_t m, n, k;
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Best-of-`reps` wall time for fn().
template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

/// The pre-PR2 in-repo GEMM: i-k-j loop order, C row kept hot.
void gemm_ikj(std::size_t m, std::size_t n, std::size_t k, const float* a,
              const float* b, float* c) {
  std::fill(c, c + m * n, 0.0F);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = a[i * k + kk];
      const float* brow = b + kk * n;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

struct ShapeResult {
  Shape shape;
  double naive_gflops = 0;
  double ikj_gflops = 0;
  double blocked_gflops = 0;
  double simd_gflops = 0;
};

struct IGemmResult {
  Shape shape;
  double auto_gops = 0;
  double scalar_gops = 0;
};

/// Single-thread GOP/s of igemm_nt at each shape for kAuto and kScalar;
/// empty on a mismatch against igemm_nt_ref (the two must agree exactly).
std::vector<IGemmResult> measure_igemm(const std::vector<Shape>& shapes,
                                       bool quick,
                                       wino::common::Rng& rng) {
  using wino::runtime::IGemmKernel;
  std::vector<IGemmResult> results;
  for (const Shape& s : shapes) {
    std::vector<std::int8_t> a(s.m * s.k);
    std::vector<std::int8_t> b(s.n * s.k);
    for (auto& v : a) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    for (auto& v : b) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    std::vector<std::int32_t> c(s.m * s.n);
    std::vector<std::int32_t> ref(s.m * s.n);
    wino::runtime::igemm_nt_ref(s.m, s.n, s.k, a.data(), s.k, b.data(), s.k,
                                ref.data(), s.n);
    const double ops = 2.0 * static_cast<double>(s.m) *
                       static_cast<double>(s.n) * static_cast<double>(s.k);
    // Each shape is well under a millisecond: time batches of calls.
    const int calls = quick ? 20 : 100;
    const auto gops = [&](IGemmKernel kernel) {
      const double sec = best_seconds(quick ? 3 : 5, [&] {
        for (int i = 0; i < calls; ++i) {
          wino::runtime::igemm_nt(s.m, s.n, s.k, a.data(), s.k, b.data(),
                                  s.k, c.data(), s.n, kernel);
        }
      });
      return ops * calls / sec / 1e9;
    };
    IGemmResult r{s, gops(IGemmKernel::kAuto), 0};
    const bool auto_ok = c == ref;
    r.scalar_gops = gops(IGemmKernel::kScalar);
    if (!auto_ok || c != ref) {
      std::printf("CORRECTNESS FAILURE on igemm %s\n", s.name.c_str());
      return {};
    }
    results.push_back(r);
  }
  return results;
}

struct ThreadResult {
  std::size_t threads;
  double gflops;
  double speedup;
};

}  // namespace

int main(int argc, char** argv) {
  if (!wino::common::validate_bench_args(
          argc, argv, {"--quick"},
          "gemm_kernels [--quick] [--out <path>]")) {
    return 2;
  }
  const bool quick = wino::common::has_flag(argc, argv, "--quick");

  // Representative VGG-16 im2col GEMM shapes (M = output channels,
  // K = C * 3 * 3, N = output pixels) plus the square reference point the
  // CI regression gate tracks (bench/check_bench_regression.py). --quick
  // scales the VGG pixel counts down 4x but keeps square-512 intact so the
  // gated number is comparable between quick and full runs.
  std::vector<Shape> shapes = {
      {"square-512", 512, 512, 512},
      {"vgg-conv1_2", 64, quick ? 12544u : 50176u, 576},
      {"vgg-conv2_2", 128, quick ? 3136u : 12544u, 1152},
      {"vgg-conv3_2", 256, quick ? 784u : 3136u, 2304},
      {"vgg-conv4_2", 512, 784, 2304},
      {"vgg-conv5_2", 512, 196, 4608},
  };

  std::printf("gemm_kernels — naive vs blocked vs blocked+SIMD "
              "(compiled kernel: %s)\n\n",
              wino::runtime::sgemm_kernel_name());

  wino::common::Rng rng(3);
  wino::common::TextTable table;
  table.header({"shape", "M", "N", "K", "naive GF/s", "ikj GF/s",
                "blocked GF/s", "simd GF/s", "simd/naive", "simd/ikj"});

  std::vector<ShapeResult> results;
  double square_speedup_vs_naive = 0;
  double square_speedup_vs_ikj = 0;
  wino::runtime::ThreadPool::set_global_threads(1);
  for (const Shape& s : shapes) {
    std::vector<float> a(s.m * s.k);
    std::vector<float> b(s.k * s.n);
    std::vector<float> c(s.m * s.n);
    std::vector<float> ref(s.m * s.n);
    rng.fill_uniform(a);
    rng.fill_uniform(b);
    const double flops = 2.0 * static_cast<double>(s.m) *
                         static_cast<double>(s.n) *
                         static_cast<double>(s.k);
    const int reps = quick ? 2 : 3;

    ShapeResult r;
    r.shape = s;
    r.naive_gflops =
        flops / best_seconds(1, [&] {
          wino::runtime::sgemm_naive(s.m, s.n, s.k, 1.0F, a.data(), s.k,
                                     b.data(), s.n, 0.0F, ref.data(), s.n);
        }) /
        1e9;
    r.ikj_gflops = flops / best_seconds(reps, [&] {
                     gemm_ikj(s.m, s.n, s.k, a.data(), b.data(), c.data());
                   }) /
                   1e9;
    r.blocked_gflops =
        flops / best_seconds(reps, [&] {
          wino::runtime::sgemm(s.m, s.n, s.k, 1.0F, a.data(), s.k, b.data(),
                               s.n, 0.0F, c.data(), s.n,
                               GemmKernel::kScalar);
        }) /
        1e9;
    r.simd_gflops =
        flops / best_seconds(reps, [&] {
          wino::runtime::sgemm(s.m, s.n, s.k, 1.0F, a.data(), s.k, b.data(),
                               s.n, 0.0F, c.data(), s.n, GemmKernel::kAuto);
        }) /
        1e9;

    // Guard: the timed kernel must agree with the reference (to rounding;
    // bit-exact when K fits one reduction panel).
    double worst = 0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      worst = std::max(worst, std::abs(static_cast<double>(c[i]) -
                                       static_cast<double>(ref[i])));
    }
    if (worst > 1e-2) {
      std::printf("CORRECTNESS FAILURE on %s: max|diff| = %g\n",
                  s.name.c_str(), worst);
      return 1;
    }

    if (&s == &shapes.front()) {
      square_speedup_vs_naive = r.simd_gflops / r.naive_gflops;
      square_speedup_vs_ikj = r.simd_gflops / r.ikj_gflops;
    }
    table.row({s.name, std::to_string(s.m), std::to_string(s.n),
               std::to_string(s.k),
               wino::common::TextTable::num(r.naive_gflops),
               wino::common::TextTable::num(r.ikj_gflops),
               wino::common::TextTable::num(r.blocked_gflops),
               wino::common::TextTable::num(r.simd_gflops),
               wino::common::TextTable::num(r.simd_gflops / r.naive_gflops),
               wino::common::TextTable::num(r.simd_gflops / r.ikj_gflops)});
    results.push_back(r);
  }
  table.print();
  std::printf("\n%s single-thread speedup: %.2fx vs naive, %.2fx vs ikj\n\n",
              shapes.front().name.c_str(), square_speedup_vs_naive,
              square_speedup_vs_ikj);

  // --- Thread scaling on the square shape, best kernel ---------------------
  const Shape& sq = shapes.front();
  std::vector<float> a(sq.m * sq.k);
  std::vector<float> b(sq.k * sq.n);
  std::vector<float> c(sq.m * sq.n);
  rng.fill_uniform(a);
  rng.fill_uniform(b);
  const double flops = 2.0 * static_cast<double>(sq.m) *
                       static_cast<double>(sq.n) * static_cast<double>(sq.k);

  wino::common::TextTable scaling;
  scaling.header({"threads", "GF/s", "speedup", "bit-identical"});
  std::vector<ThreadResult> thread_results;
  std::vector<float> ref1;
  double base_gflops = 0;
  bool deterministic = true;
  for (const std::size_t t : {1u, 2u, 4u, 8u}) {
    wino::runtime::ThreadPool::set_global_threads(t);
    const double sec = best_seconds(quick ? 2 : 3, [&] {
      wino::runtime::sgemm(sq.m, sq.n, sq.k, 1.0F, a.data(), sq.k, b.data(),
                           sq.n, 0.0F, c.data(), sq.n);
    });
    const double gflops = flops / sec / 1e9;
    if (t == 1) {
      base_gflops = gflops;
      ref1 = c;
    }
    const bool same =
        std::memcmp(ref1.data(), c.data(), c.size() * sizeof(float)) == 0;
    deterministic = deterministic && same;
    thread_results.push_back({t, gflops, gflops / base_gflops});
    scaling.row({std::to_string(t), wino::common::TextTable::num(gflops),
                 wino::common::TextTable::num(gflops / base_gflops),
                 same ? "yes" : "NO"});
  }
  scaling.print();
  if (!deterministic) {
    std::printf("DETERMINISM VIOLATION in thread scaling\n");
    return 1;
  }

  // --- Int8 GEMM at the quick VGG's int8 im2col shapes ---------------------
  wino::runtime::ThreadPool::set_global_threads(1);
  const std::vector<IGemmResult> igemm = measure_igemm(
      {{"vgg-quick-conv1", 8, 1024, 72},
       {"vgg-quick-conv2", 16, 256, 144},
       {"vgg-quick-conv3", 32, 64, 288},
       {"vgg-quick-conv4", 64, 16, 576}},
      quick, rng);
  if (igemm.empty()) return 1;
  std::printf("\nigemm_nt (compiled kernel: %s), single thread\n",
              wino::runtime::igemm_kernel_name());
  wino::common::TextTable itable;
  itable.header({"shape", "M", "N", "K", "auto GOP/s", "scalar GOP/s",
                 "auto/scalar"});
  for (const IGemmResult& r : igemm) {
    itable.row({r.shape.name, std::to_string(r.shape.m),
                std::to_string(r.shape.n), std::to_string(r.shape.k),
                wino::common::TextTable::num(r.auto_gops),
                wino::common::TextTable::num(r.scalar_gops),
                wino::common::TextTable::num(r.auto_gops / r.scalar_gops)});
  }
  itable.print();

  // --- BENCH_gemm.json -----------------------------------------------------
  const std::string json_path =
      wino::common::bench_output_path(argc, argv, "BENCH_gemm.json");
  FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::printf("warning: could not open %s for writing\n",
                json_path.c_str());
    return 0;
  }
  const auto blocking = wino::runtime::sgemm_blocking();
  std::fprintf(json,
               "{\n  \"bench\": \"gemm_kernels\",\n"
               "  \"kernel\": \"%s\",\n  \"quick\": %s,\n"
               "  \"blocking\": {\"mr\": %zu, \"nr\": %zu, \"kc\": %zu, "
               "\"nc\": %zu},\n  \"shapes\": [\n",
               wino::runtime::sgemm_kernel_name(), quick ? "true" : "false",
               blocking.mr, blocking.nr, blocking.kc, blocking.nc);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ShapeResult& r = results[i];
    std::fprintf(
        json,
        "    {\"name\": \"%s\", \"m\": %zu, \"n\": %zu, \"k\": %zu,\n"
        "     \"naive_gflops\": %.4f, \"ikj_gflops\": %.4f,\n"
        "     \"blocked_scalar_gflops\": %.4f, \"blocked_simd_gflops\": "
        "%.4f,\n"
        "     \"speedup_simd_vs_naive\": %.4f, \"speedup_simd_vs_ikj\": "
        "%.4f}%s\n",
        r.shape.name.c_str(), r.shape.m, r.shape.n, r.shape.k,
        r.naive_gflops, r.ikj_gflops, r.blocked_gflops, r.simd_gflops,
        r.simd_gflops / r.naive_gflops, r.simd_gflops / r.ikj_gflops,
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"thread_scaling\": {\"shape\": \"%s\", "
                     "\"points\": [\n",
               sq.name.c_str());
  for (std::size_t i = 0; i < thread_results.size(); ++i) {
    const ThreadResult& t = thread_results[i];
    std::fprintf(json,
                 "    {\"threads\": %zu, \"gflops\": %.4f, \"speedup\": "
                 "%.4f}%s\n",
                 t.threads, t.gflops, t.speedup,
                 i + 1 < thread_results.size() ? "," : "");
  }
  std::fprintf(json, "  ]},\n  \"igemm\": {\"kernel\": \"%s\", "
                     "\"shapes\": [\n",
               wino::runtime::igemm_kernel_name());
  for (std::size_t i = 0; i < igemm.size(); ++i) {
    const IGemmResult& r = igemm[i];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"m\": %zu, \"n\": %zu, "
                 "\"k\": %zu, \"auto_gops\": %.4f, \"scalar_gops\": "
                 "%.4f}%s\n",
                 r.shape.name.c_str(), r.shape.m, r.shape.n, r.shape.k,
                 r.auto_gops, r.scalar_gops,
                 i + 1 < igemm.size() ? "," : "");
  }
  std::fprintf(json, "  ]},\n  \"deterministic\": %s\n}\n",
               deterministic ? "true" : "false");
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
