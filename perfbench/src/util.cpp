#include "util.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_MARCH_NATIVE
#define PERFBENCH_MARCH_NATIVE 0
#endif

namespace perfbench {
namespace {

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Full-precision JSON number (non-finite values are not valid JSON and
/// never reach here: RunResult::set rejects them).
std::string number(double v) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

}  // namespace

void RunResult::set(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    // A metric the benchmark cannot compute is a benchmark bug, not a
    // program failure; report it loudly rather than emit invalid JSON.
    throw std::runtime_error("metric " + name + " is not finite");
  }
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

std::string RunResult::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << '"' << escape(metrics[i].name)
       << "\": {\"value\": " << number(metrics[i].value) << ", \"unit\": \""
       << escape(metrics[i].unit) << "\"}";
  }
  os << "}}";
  return os.str();
}

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(p, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void fix_mmap_threshold() { mallopt(M_MMAP_THRESHOLD, 128 * 1024); }

void release_free_memory() { malloc_trim(0); }

std::string host_json() {
  std::ostringstream os;
  os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN);
  // Unified/data caches of cpu0, by level (sysfs sizes read like "2048K").
  for (int idx = 0; idx < 8; ++idx) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/";
    const std::string level = read_line(dir + "level");
    if (level.empty()) break;
    const std::string type = read_line(dir + "type");
    if (type == "Instruction") continue;
    if (level == "2" || level == "3") {
      os << ", \"l" << level << "\": \"" << escape(read_line(dir + "size"))
         << "\"";
    }
  }
  os << ", \"compiler\": \"" << escape(PERFBENCH_COMPILER) << "\""
     << ", \"build_type\": \"" << escape(PERFBENCH_BUILD_TYPE) << "\""
     << ", \"march_native\": " << (PERFBENCH_MARCH_NATIVE ? "true" : "false")
     << "}";
  return os.str();
}

}  // namespace perfbench
