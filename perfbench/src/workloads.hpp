#pragma once
/// \file workloads.hpp
/// \brief The benchmark's workloads and the metric names every run
/// reports (see README.md for what each one measures and why).

#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "util.hpp"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: reported by every untraced run.
extern const std::vector<MetricDef> kEndToEnd;
/// Per-layer metrics: reported by every traced run; layers a workload
/// does not exercise read 0.
extern const std::vector<MetricDef> kPerLayer;

/// Zero-fill the metric set of the run's mode, so every name is present
/// in declaration order before a workload overwrites what it measures.
void init_metrics(RunResult& out, bool traced);

RunResult run_paper_matrix(const RunConfig& cfg);
RunResult run_periodic_horizon(const RunConfig& cfg);
RunResult run_service_mix(const RunConfig& cfg);

/// Energy of one finished scenario, for the paper-fidelity metric.
struct EnergySample {
  int tiers = 0;
  tac3d::sim::PolicyKind policy = tac3d::sim::PolicyKind::kLcLb;
  double chip = 0.0;
  double pump = 0.0;
};

/// Max |measured - paper| [percentage points] over the four Fig. 7
/// LC_FUZZY-vs-LC_LB savings (2-/4-tier system 14/18 %, cooling
/// 50/52 %), with chip and pump energy averaged per stack x policy cell
/// over the samples exactly as bench_fig7_energy averages them. Throws
/// when a cell has no sample.
double paper_dev_pts(const std::vector<EnergySample>& samples);

/// Stack x policy cell of a scenario ("2-tier LC_FUZZY"): the output
/// check recomputes at least one result of every cell.
std::string stack_policy(const tac3d::sim::Scenario& s);

/// Set-up repetitions: at least 11, then more while their total stays
/// under 4 s (at most 60). setup_s reports their median.
bool another_setup_rep(const std::vector<double>& reps);

/// peak_rss_mb is read once this many timed rounds have run (set-up
/// included): one cold and one warm pass over the workload. Later rounds
/// repeat the same work on the sweeps, but on service_mix every what-if
/// adds a trace and a steady state to the bank, so a later read would
/// depend on how many requests fit in the measuring time.
inline constexpr std::size_t kRssRounds = 2;

/// Timed-phase rule: start another round while the median round so far
/// is expected to end within the measuring time; always run at least
/// \p min_rounds.
bool another_round(const std::vector<double>& walls, double elapsed,
                   double seconds, std::size_t min_rounds);

}  // namespace perfbench
