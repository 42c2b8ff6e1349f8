// Shared plumbing of the benchmark program: command-line arguments, named
// metrics with units, per-phase operation accounting, percentiles, the
// in-memory span recorder and a minimal JSON writer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double seconds_since(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

/// SplitMix64 finaliser: derives independent stream seeds from the run seed
/// and a per-stream tag, so e.g. the timed inputs never share a stream with
/// the calibration sample.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Full-precision number; non-finite values become null.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Insertion-ordered JSON object built from already-serialised values.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& raw(const std::string& key, std::string json) {
    kv_.emplace_back(key, std::move(json));
    return *this;
  }
  [[nodiscard]] std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < kv_.size(); ++i) {
      if (i > 0) out += ", ";
      out += json_string(kv_[i].first) + ": " + kv_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

inline std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  return out + "]";
}

/// Named metrics with units, in the order they were set.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  [[nodiscard]] std::string dump() const {
    JsonObject o;
    for (const auto& e : entries_) {
      o.raw(e.name, JsonObject().num("value", e.value).str("unit", e.unit)
                        .dump());
    }
    return o.dump();
  }
  void print(std::FILE* f) const {
    for (const auto& e : entries_) {
      std::fprintf(f, "  %-36s %16.6g %s\n", e.name.c_str(), e.value,
                   e.unit.c_str());
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Operations attempted / failed per named phase. Wrong outputs,
/// exceptions and refused requests all count as failures.
class Accounting {
 public:
  void attempt(const std::string& phase, std::uint64_t n = 1) {
    find(phase).attempted += n;
  }
  void fail(const std::string& phase, const std::string& why,
            std::uint64_t n = 1) {
    find(phase).failed += n;
    if (reasons_.size() < 16) reasons_.push_back(phase + ": " + why);
  }
  [[nodiscard]] std::uint64_t attempted() const {
    std::uint64_t n = 0;
    for (const auto& p : phases_) n += p.attempted;
    return n;
  }
  [[nodiscard]] std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const auto& p : phases_) n += p.failed;
    return n;
  }
  void print(std::FILE* f) const {
    for (const auto& p : phases_) {
      std::fprintf(f, "phase %-16s attempted %8llu  succeeded %8llu  failed %llu\n",
                   p.name.c_str(), static_cast<unsigned long long>(p.attempted),
                   static_cast<unsigned long long>(p.attempted - p.failed),
                   static_cast<unsigned long long>(p.failed));
    }
  }
  [[nodiscard]] std::string dump() const {
    std::vector<std::string> items;
    for (const auto& p : phases_) {
      items.push_back(JsonObject()
                          .str("phase", p.name)
                          .num("attempted", static_cast<double>(p.attempted))
                          .num("succeeded",
                               static_cast<double>(p.attempted - p.failed))
                          .num("failed", static_cast<double>(p.failed))
                          .dump());
    }
    std::vector<std::string> why;
    for (const auto& r : reasons_) why.push_back(json_string(r));
    return JsonObject()
        .raw("phases", json_array(items))
        .raw("first_failures", json_array(why))
        .dump();
  }

 private:
  struct Phase {
    std::string name;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
  };
  Phase& find(const std::string& name) {
    for (auto& p : phases_) {
      if (p.name == name) return p;
    }
    phases_.push_back({name, 0, 0});
    return phases_.back();
  }
  std::vector<Phase> phases_;
  std::vector<std::string> reasons_;
};

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size())));
  return v[idx - 1];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// A latency summary of a time-ordered sample, computed per consecutive
/// window of kWindow samples and reported as the median over windows, so a
/// host stall that slows one stretch of the run moves one window rather
/// than the whole figure. The tail is each window's p99 (with fewer than
/// kWindow samples, the highest percentile that still has ten samples
/// beyond it); p90 is over all samples.
struct LatencySummary {
  static constexpr std::size_t kWindow = 1000;

  double p50 = 0;
  double p90 = 0;
  double tail = 0;
  double tail_q = 0;  ///< the percentile `tail` reports, e.g. 0.99
  std::size_t n = 0;
  std::vector<double> window_p50s;
  std::vector<double> window_tails;

  [[nodiscard]] std::string dump() const {
    const auto list = [](const std::vector<double>& v) {
      std::vector<std::string> items;
      for (double x : v) items.push_back(json_number(x));
      return json_array(items);
    };
    return JsonObject()
        .num("samples", static_cast<double>(n))
        .num("p50_ms", p50)
        .num("p90_ms", p90)
        .num("tail_ms", tail)
        .num("tail_percentile", 100.0 * tail_q)
        .raw("window_p50s_ms", list(window_p50s))
        .raw("window_tails_ms", list(window_tails))
        .dump();
  }
};

inline LatencySummary summarize(const std::vector<double>& ms) {
  LatencySummary s;
  s.n = ms.size();
  if (ms.empty()) return s;
  s.p90 = percentile(ms, 0.9);
  const std::size_t windows =
      std::max<std::size_t>(1, ms.size() / LatencySummary::kWindow);
  const std::size_t per = ms.size() / windows;
  s.tail_q = std::clamp(1.0 - 10.0 / static_cast<double>(per), 0.5, 0.99);
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = ms.begin() + static_cast<std::ptrdiff_t>(w * per);
    const std::vector<double> window(first, first + per);
    s.window_p50s.push_back(percentile(window, 0.5));
    s.window_tails.push_back(percentile(window, s.tail_q));
  }
  s.p50 = median(s.window_p50s);
  s.tail = median(s.window_tails);
  return s;
}

/// In-memory span recorder. Spans carry a name, start and end (ms since the
/// recorder's origin), the id of the span that caused them and the id of
/// the request (or call) they belong to. Written out once, at the end.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}

  /// Records a span and returns its id (0 when disabled).
  std::uint64_t add(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t parent,
                    std::uint64_t request) {
    if (!enabled_) return 0;
    spans_.push_back({name, ms_between(origin_, start),
                      ms_between(origin_, end), parent, request});
    return spans_.size();
  }

  /// Opens a span whose end is set later by end(); lets a parent span get
  /// its id before its children are recorded.
  std::uint64_t begin(const char* name, Clock::time_point start,
                      std::uint64_t parent, std::uint64_t request) {
    return add(name, start, start, parent, request);
  }

  void end(std::uint64_t id, Clock::time_point end) {
    if (id != 0) spans_[id - 1].end_ms = ms_between(origin_, end);
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// One JSON object per line: id, parent, request, name, start_ms, end_ms.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"parent\": %llu, \"request\": %llu, "
                   "\"name\": \"%s\", \"start_ms\": %.6f, \"end_ms\": %.6f}\n",
                   i + 1, static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.name,
                   s.start_ms, s.end_ms);
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    double start_ms;
    double end_ms;
    std::uint64_t parent;
    std::uint64_t request;
  };
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Everything one run reports: the result line and the detail file.
struct RunResult {
  Metrics metrics;
  Accounting accounting;
  bool checks_ok = true;
  std::vector<std::string> check_log;  ///< one line per correctness check
  JsonObject details;                  ///< workload-specific detail fields

  void check(bool ok, const std::string& what) {
    checks_ok = checks_ok && ok;
    check_log.push_back(std::string(ok ? "PASS " : "FAIL ") + what);
  }
};

}  // namespace perfbench
