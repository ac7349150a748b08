#pragma once
/// \file util.hpp
/// \brief Shared plumbing of the perfbench runner: the run result, order
/// statistics and the host record.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

using Stopwatch = tac3d::obs::Stopwatch;

/// Sweep workers, and the service's core budget and client count: below
/// nproc = 4 of the shared host the benchmark was written on.
inline constexpr int kWorkers = 2;

/// Options of one benchmark run (parsed from the command line).
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// Traced runs write Chrome trace events to <trace_out>-<part>.json,
  /// one file per traced round plus one for a cold prepare pass.
  std::string trace_out;
};

/// Trace file of one part of a traced run ("prepare", "round3").
inline std::string trace_path(const RunConfig& cfg, const std::string& part) {
  return cfg.trace_out + "-" + part + ".json";
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome of one run: what the final JSON line reports.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit);
  bool correct() const { return failed == 0 && attempted > 0; }
  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string json() const;
};

/// a / b, or 0 when b is 0 (per-layer ratios of layers a workload does
/// not exercise read 0, never NaN).
double ratio(double a, double b);

/// Interpolated order statistic, p in [0, 1] (0 for an empty sample).
/// Exact at any sample count, where obs::Histogram falls back to bucket
/// resolution past its retained-sample cap.
double quantile(std::vector<double> v, double p);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Peak resident set size of this process so far [MiB].
double peak_rss_mb();

/// Fix glibc's mmap threshold at its default start value (128 KiB).
/// Left dynamic, the threshold rises after the first large free, and
/// whether a later large block is mmapped (returned to the OS when
/// freed) or carved from a thread's arena (kept until trimmed) then
/// depends on the order in which worker threads free: the peak RSS of
/// one run came out about 2 MiB (paper_matrix) or 100 MiB
/// (periodic_horizon) apart from another's. Called first thing in main.
void fix_mmap_threshold();

/// Return freed heap memory of every malloc arena to the OS. Called
/// between rounds: each run_sweep starts fresh worker threads, and
/// without a trim the peak would depend on which arenas those threads
/// happen to get rather than on what the workload keeps live.
void release_free_memory();

/// Host record: core count, cache sizes (sysfs), compiler, build type and
/// -march=native, as one JSON object.
std::string host_json();

}  // namespace perfbench
