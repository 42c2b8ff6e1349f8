// Benchmark entry point: runs one named workload against libwino's public API
// and prints its metrics by name with units. The last line of stdout is
// the result object {"correct", "attempted", "failed", "metrics"}; a
// detail file with the host block, per-phase accounting, sample counts and
// check log is written to <out-dir>/<workload>.<e2e|trace>.json.
//
// Usage: perfbench --workload <offline-fp32|offline-int8|serve-mix>
//                  --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "runtime/thread_pool.hpp"
#include "workloads.hpp"

namespace {

/// Every workload runs on a one-thread pool: each forward runs wholly on
/// its calling thread. With more threads a call is only as fast as the
/// slowest of the cores it waits on, and on a shared host that is more
/// often a contended one.
constexpr std::size_t kPoolThreads = 1;

bool parse(int argc, char** argv, perfbench::Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (key == "--out-dir") {
      a.out_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  wino::runtime::ThreadPool::set_global_threads(kPoolThreads);
  perfbench::RunResult r;
  try {
    if (args.workload == "offline-fp32") {
      r = perfbench::run_offline(args, false);
    } else if (args.workload == "offline-int8") {
      r = perfbench::run_offline(args, true);
    } else if (args.workload == "serve-mix") {
      r = perfbench::run_serve(args);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  const bool correct = r.checks_ok && r.accounting.failed() == 0;
  std::vector<std::string> log;
  for (const auto& line : r.check_log) {
    std::printf("check: %s\n", line.c_str());
    log.push_back(perfbench::json_string(line));
  }
  std::printf("%s (seed %llu, %s):\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced");
  r.accounting.print(stdout);
  r.metrics.print(stdout);

  const std::string detail =
      perfbench::JsonObject()
          .str("workload", args.workload)
          .num("seed", static_cast<double>(args.seed))
          .num("seconds", args.seconds)
          .boolean("trace", args.trace)
          .raw("details", r.details.dump())
          .raw("accounting", r.accounting.dump())
          .raw("checks", perfbench::json_array(log))
          .raw("metrics", r.metrics.dump())
          .dump();
  const std::string path = args.out_dir + "/" + args.workload +
                           (args.trace ? ".trace.json" : ".e2e.json");
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "%s\n", detail.c_str());
    std::fclose(f);
  }
  std::printf("detail: %s\n", path.c_str());
  std::printf(
      "%s\n",
      perfbench::JsonObject()
          .boolean("correct", correct)
          .num("attempted", static_cast<double>(r.accounting.attempted()))
          .num("failed", static_cast<double>(r.accounting.failed()))
          .raw("metrics", r.metrics.dump())
          .dump()
          .c_str());
  return 0;
}
