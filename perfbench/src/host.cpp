#include "host.hpp"

#include <unistd.h>

#include <memory>
#include <thread>
#include <vector>

#include "runtime/gemm.hpp"
#include "runtime/igemm.hpp"
#include "runtime/thread_pool.hpp"

namespace perfbench {
namespace {

/// Dependent floating-point chain: pure core-bound work with no memory
/// traffic, so N concurrent copies finish in the time of one exactly when
/// N cores are really available.
double burn(std::uint64_t iterations) {
  double x = 1.0;
  for (std::uint64_t i = 0; i < iterations; ++i) x = x * 0.999999 + 1e-7;
  return x;
}

double timed_burn(std::size_t threads, std::uint64_t iterations) {
  std::vector<double> sink(threads);
  const auto t0 = Clock::now();
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&sink, t, iterations] { sink[t] = burn(iterations); });
    }
  }
  const double s = seconds_since(t0);
  volatile double keep = sink[0];
  (void)keep;
  return s;
}

/// Cores the host actually delivers: nproc copies of the burn loop against
/// one copy, best of two.
double effective_cores(std::size_t nproc) {
  // Long enough (~0.15 s per copy) for the scheduler to spread the copies
  // over idle cores; shorter bursts read low on a freshly woken VM.
  constexpr std::uint64_t kIters = 50'000'000;
  double one = 1e30;
  double all = 1e30;
  for (int rep = 0; rep < 2; ++rep) {
    one = std::min(one, timed_burn(1, kIters));
    all = std::min(all, timed_burn(nproc, kIters));
  }
  return static_cast<double>(nproc) * one / all;
}

/// 512^3 sgemm on the global pool, best of five.
double sgemm_roof_gflops() {
  constexpr std::size_t n = 512;
  std::vector<float> a(n * n, 0.5F), b(n * n, 0.25F), c(n * n);
  wino::runtime::sgemm(n, n, n, 1.0F, a.data(), n, b.data(), n, 0.0F,
                       c.data(), n);
  double best = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    wino::runtime::sgemm(n, n, n, 1.0F, a.data(), n, b.data(), n, 0.0F,
                         c.data(), n);
    best = std::min(best, seconds_since(t0));
  }
  return 2.0 * n * n * n / best * 1e-9;
}

/// STREAM triad a = b + s*c over double arrays on the global pool, best of
/// five passes; counts 3 * 8 bytes per element (two reads, one write).
double triad_gbs(std::size_t elements) {
  const std::unique_ptr<double[]> a(new double[elements]);
  const std::unique_ptr<double[]> b(new double[elements]);
  const std::unique_ptr<double[]> c(new double[elements]);
  wino::runtime::parallel_for(elements, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  double best = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    wino::runtime::parallel_for(elements, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
    });
    best = std::min(best, seconds_since(t0));
  }
  return 3.0 * 8.0 * static_cast<double>(elements) / best * 1e-9;
}

}  // namespace

double reference_ms() {
  constexpr std::size_t n = 64;
  thread_local std::vector<float> a(n * n, 0.5F), b(n * n, 0.25F), c(n * n);
  const auto pass = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < n; ++k) {
        const float aik = a[i * n + k];
        for (std::size_t j = 0; j < n; ++j) c[i * n + j] += aik * b[k * n + j];
      }
    }
  };
  pass();  // untimed: brings the operands back into L1 after the operation
  // Four timed quarters; the fastest stands for all four, so a quarter
  // during which the host took the core away does not count.
  double quarter = 1e30;
  for (int q = 0; q < 4; ++q) {
    const auto t0 = Clock::now();
    pass();
    pass();
    quarter = std::min(quarter, ms_between(t0, Clock::now()));
  }
  const double ms = 4.0 * quarter;
  volatile float keep = c[0];
  (void)keep;
  return ms;
}

double ScaledTimes::ms() const {
  std::vector<double> ratio(raw_.size());
  for (std::size_t i = 0; i < raw_.size(); ++i) ratio[i] = raw_[i] / ref_[i];
  return kReferenceMs * percentile(ratio, kQuantile);
}

std::string ScaledTimes::dump() const {
  return JsonObject()
      .num("samples", static_cast<double>(raw_.size()))
      .num("scaled_ms", ms())
      .num("ratio_percentile", 100.0 * kQuantile)
      .num("raw_p50_ms", median(raw_))
      .num("reference_p50_ms", median(ref_))
      .dump();
}

HostInfo measure_host() {
  HostInfo h;
  const std::size_t nproc = std::max(1U, std::thread::hardware_concurrency());
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  h.llc_bytes = llc > 0 ? static_cast<std::size_t>(llc) : 0;
  // Arrays of 4x the LLC where that fits the memory cap; the host shares
  // its RAM, so each array is capped at 128 MiB and the block says whether
  // the 4x rule held.
  constexpr std::size_t kCapBytes = 128u << 20;
  const std::size_t want = std::max<std::size_t>(4 * h.llc_bytes, 32u << 20);
  h.triad_array_bytes = std::min(want, kCapBytes);
  h.effective_cores = effective_cores(nproc);
  h.sgemm_gflops_512 = sgemm_roof_gflops();
  h.triad_gbs = triad_gbs(h.triad_array_bytes / sizeof(double));

  h.json.num("nproc", static_cast<double>(nproc))
      .num("pool_threads",
           static_cast<double>(wino::runtime::ThreadPool::global().threads()))
      .str("sgemm_kernel", wino::runtime::sgemm_kernel_name())
      .str("igemm_kernel", wino::runtime::igemm_kernel_name())
      .boolean("cpu_avx2", __builtin_cpu_supports("avx2") != 0)
      .boolean("cpu_avx512f", __builtin_cpu_supports("avx512f") != 0)
      .boolean("cpu_avx512_vnni", __builtin_cpu_supports("avx512vnni") != 0)
      .num("effective_cores", h.effective_cores)
      .str("effective_cores_probe",
           "dependent fp64 chain, nproc copies vs one, best of 2")
      .num("sgemm_gflops_512", h.sgemm_gflops_512)
      .str("sgemm_roof_shape", "512x512x512 fp32 on the pool, best of 5")
      .num("triad_gbs", h.triad_gbs)
      .num("triad_array_bytes", static_cast<double>(h.triad_array_bytes))
      .num("llc_bytes", static_cast<double>(h.llc_bytes))
      .boolean("triad_arrays_ge_4x_llc",
               h.llc_bytes > 0 && h.triad_array_bytes >= 4 * h.llc_bytes);
  return h;
}

}  // namespace perfbench
