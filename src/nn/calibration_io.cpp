#include "nn/calibration_io.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/kernel_registry.hpp"

namespace wino::nn {

namespace {

std::string cpu_model_name() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto name = line.substr(colon + 1);
        const auto first = name.find_first_not_of(" \t");
        if (first != std::string::npos) return name.substr(first);
      }
    }
  }
  return "unknown-cpu";
}

/// Exact-round-trip double formatting (C hexfloat).
std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// strtod parses hexfloat input (istream >> double does not); the token
/// must be consumed entirely.
bool parse_double(const std::string& token, double& out) {
  if (token.empty()) return false;
  char* end = nullptr;
  out = std::strtod(token.c_str(), &end);
  return end == token.c_str() + token.size() && std::isfinite(out);
}

bool parse_size(const std::string& token, std::size_t& out) {
  if (token.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size()) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

/// The six calibration entries in their fixed serialisation order.
std::vector<AlgoCalibration*> entry_order(Calibration& cal) {
  return {&cal.spatial,   &cal.im2col,    &cal.fft,
          &cal.winograd2, &cal.winograd3, &cal.winograd4};
}

bool plausible(const AlgoCalibration& c) {
  return c.gflops_small > 0 && c.gflops_big > 0 && c.ops_small > 0 &&
         c.ops_big > c.ops_small;
}

}  // namespace

std::string calibration_cpu_signature() {
  std::ostringstream sig;
  sig << cpu_model_name() << " | cores=" << std::thread::hardware_concurrency()
      << " | isa=" << runtime::active_kernel_set().name;
  return sig.str();
}

std::string calibration_code_hash() {
  // "planner-v2": bump when probe shapes / timing methodology / cost-model
  // semantics change (v2: int8 algos entered the layer-time key space).
  // __VERSION__ folds the compiler in — different codegen, different
  // measured rates.
  return std::string("planner-v2 | ") + __VERSION__;
}

bool save_measured_state(const std::string& path) {
  const MeasuredState state = export_measured_state();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << "winocal 1\n";
    out << "cpu " << calibration_cpu_signature() << '\n';
    out << "code " << calibration_code_hash() << '\n';
    if (state.calibration) {
      Calibration cal = *state.calibration;
      out << "cal";
      for (const AlgoCalibration* e : entry_order(cal)) {
        out << ' ' << hexfloat(e->ops_small) << ' ' << hexfloat(e->gflops_small)
            << ' ' << hexfloat(e->ops_big) << ' ' << hexfloat(e->gflops_big);
      }
      out << '\n';
    }
    for (const MeasuredLayerTime& t : state.layer_times) {
      out << "layer " << t.h << ' ' << t.w << ' ' << t.c << ' ' << t.k << ' '
          << t.r << ' ' << t.pad << ' ' << static_cast<int>(t.algo) << ' '
          << hexfloat(t.seconds) << '\n';
    }
    out << "end\n";
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool load_measured_state(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;

  std::string line;
  if (!std::getline(in, line) || line != "winocal 1") return false;
  if (!std::getline(in, line) ||
      line != "cpu " + calibration_cpu_signature()) {
    return false;
  }
  if (!std::getline(in, line) || line != "code " + calibration_code_hash()) {
    return false;
  }

  // Parse everything before importing anything: a corrupt tail must not
  // leave a half-imported state behind.
  MeasuredState state;
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line == "end") {
      saw_end = true;
      break;
    }
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "cal") {
      Calibration cal;
      for (AlgoCalibration* e : entry_order(cal)) {
        std::string t1, t2, t3, t4;
        if (!(fields >> t1 >> t2 >> t3 >> t4)) return false;
        if (!parse_double(t1, e->ops_small) ||
            !parse_double(t2, e->gflops_small) ||
            !parse_double(t3, e->ops_big) ||
            !parse_double(t4, e->gflops_big)) {
          return false;
        }
        if (!plausible(*e)) return false;
      }
      state.calibration = cal;
    } else if (kind == "layer") {
      MeasuredLayerTime t;
      std::string sh, sw, sc, sk, sr, spad, salgo, ssecs;
      if (!(fields >> sh >> sw >> sc >> sk >> sr >> spad >> salgo >> ssecs)) {
        return false;
      }
      std::size_t pad = 0;
      std::size_t algo = 0;
      if (!parse_size(sh, t.h) || !parse_size(sw, t.w) ||
          !parse_size(sc, t.c) || !parse_size(sk, t.k) ||
          !parse_size(sr, t.r) || !parse_size(spad, pad) ||
          !parse_size(salgo, algo) || !parse_double(ssecs, t.seconds)) {
        return false;
      }
      if (algo > static_cast<std::size_t>(ConvAlgo::kInt8Winograd4)) {
        return false;
      }
      if (!(t.seconds > 0)) return false;
      t.pad = static_cast<int>(pad);
      t.algo = static_cast<ConvAlgo>(algo);
      state.layer_times.push_back(t);
    } else {
      return false;
    }
  }
  if (!saw_end) return false;

  import_measured_state(state);
  return true;
}

}  // namespace wino::nn
