// The host block every result carries: core counts, dispatched kernels,
// the cpuid flags that matter, and two measured roofs (512^3 sgemm GFLOP/s
// and STREAM-triad GB/s) that give the per-layer rates a ceiling.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct HostInfo {
  JsonObject json;
  double effective_cores = 0;
  double sgemm_gflops_512 = 0;
  double triad_gbs = 0;
  std::size_t llc_bytes = 0;
  std::size_t triad_array_bytes = 0;
};

/// Median time of reference_ms() on the reference host while idle, in ms
/// (README.md, "Times at reference speed").
constexpr double kReferenceMs = 0.175;

/// Runs the reference work, a fixed 64x64x64 fp32 matrix product repeated
/// eight times on operands that stay in L1 (after one untimed pass), and
/// returns its wall time in ms: four times that of the fastest quarter.
/// It is the benchmark's own code, so no change to libwino moves it; only
/// the host's speed does.
double reference_ms();

/// Times of one repeated operation, each paired with a reference_ms() run
/// on the same thread next to it (right after it; for a served batch,
/// right before it). On a shared host a
/// core slows by up to ~1.7x while co-tenants load it, in stretches from
/// milliseconds to minutes, and the reference slows with it; the ratio of
/// the two stays where the program puts it.
class ScaledTimes {
 public:
  /// The ratio percentile reported: the low end, as contention that the
  /// reference does not feel (shared caches, memory) only adds time.
  static constexpr double kQuantile = 0.05;

  void add(double ms, double ref_ms) {
    raw_.push_back(ms);
    ref_.push_back(ref_ms);
  }

  /// The operation's time at reference speed: kReferenceMs times the
  /// kQuantile percentile of operation time / reference time.
  [[nodiscard]] double ms() const;
  /// The operation times as measured, in order.
  [[nodiscard]] const std::vector<double>& raw() const { return raw_; }
  /// Sample count, the scaled figure, and the raw and reference medians.
  [[nodiscard]] std::string dump() const;

 private:
  std::vector<double> raw_, ref_;
};

/// Probes the host. Allocates the triad arrays, so call it after the
/// run's peak-RSS reading.
HostInfo measure_host();

}  // namespace perfbench
