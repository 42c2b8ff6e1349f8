// The three workloads. Each returns its metrics, operation accounting and
// correctness checks; main.cpp prints them.
#pragma once

#include "common.hpp"

namespace perfbench {

/// offline-fp32 (int8 = false) and offline-int8 (int8 = true).
RunResult run_offline(const Args& args, bool int8);

/// serve-mix: open-loop light and heavy phases, then closed-loop saturation.
RunResult run_serve(const Args& args);

/// The serve.* per-layer metrics; all zero on workloads without a server.
struct ServeLayers {
  double queue_wait_ms_p50 = 0, queue_wait_ms_p99 = 0;
  double dispatch_wait_ms = 0;
  double execute_ms_p50 = 0, execute_ms_p99 = 0;
  double batch_mean = 0;
  double submit_us_p99 = 0;
  double gen_late_ms_p99 = 0, gen_late_ms_max = 0;
  double latency_p99_ms = 0, latency_p99_ms_heavy = 0;

  void report(Metrics& m) const;
};

}  // namespace perfbench
