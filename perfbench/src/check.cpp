#include "check.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <iostream>
#include <limits>
#include <mutex>
#include <thread>

#include "sim/sweep.hpp"

namespace perfbench {

using tac3d::sim::Scenario;
using tac3d::sim::SimMetrics;

bool metrics_finite(const SimMetrics& m) {
  const double scalars[] = {m.duration,     m.any_hot_time, m.peak_temp,
                            m.chip_energy,  m.pump_energy,  m.offered_work,
                            m.lost_work,    m.avg_flow_fraction};
  for (const double v : scalars) {
    if (!std::isfinite(v)) return false;
  }
  return std::all_of(m.core_hot_time.begin(), m.core_hot_time.end(),
                     [](double v) { return std::isfinite(v); });
}

bool metrics_match(const SimMetrics& got, const SimMetrics& ref,
                   std::string* why) {
  auto close = [](double a, double b) {
    return std::abs(a - b) <= kRelTol * std::max(1.0, std::abs(b));
  };
  const struct {
    const char* name;
    double got, ref;
  } fields[] = {
      {"duration", got.duration, ref.duration},
      {"any_hot_time", got.any_hot_time, ref.any_hot_time},
      {"peak_temp", got.peak_temp, ref.peak_temp},
      {"chip_energy", got.chip_energy, ref.chip_energy},
      {"pump_energy", got.pump_energy, ref.pump_energy},
      {"offered_work", got.offered_work, ref.offered_work},
      {"lost_work", got.lost_work, ref.lost_work},
      {"avg_flow_fraction", got.avg_flow_fraction, ref.avg_flow_fraction},
      {"migrations", static_cast<double>(got.migrations),
       static_cast<double>(ref.migrations)},
  };
  for (const auto& f : fields) {
    if (!close(f.got, f.ref)) {
      if (why) {
        *why = std::string(f.name) + " " + std::to_string(f.got) +
               " vs reference " + std::to_string(f.ref);
      }
      return false;
    }
  }
  if (got.core_hot_time.size() != ref.core_hot_time.size()) {
    if (why) *why = "core count differs from the reference";
    return false;
  }
  for (std::size_t c = 0; c < got.core_hot_time.size(); ++c) {
    if (!close(got.core_hot_time[c], ref.core_hot_time[c])) {
      if (why) *why = "core_hot_time[" + std::to_string(c) + "]";
      return false;
    }
  }
  return true;
}

Scenario reference_spec(Scenario s) {
  s.trace.reset();
  s.sim.structure_cache.reset();
  s.sim.initial_state.reset();
  s.sim.operator_prototype.reset();
  s.sim.limit_cycle_replay = false;
  return s;
}

std::size_t check_against_reference(const std::vector<CheckItem>& items,
                                    int workers) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> failed{0};
  std::mutex log_mu;
  auto fail = [&](const Scenario& s, const std::string& why) {
    failed.fetch_add(1);
    std::lock_guard<std::mutex> lk(log_mu);
    std::cerr << "check: " << tac3d::sim::scenario_label(s) << ": " << why
              << '\n';
  };
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= items.size()) return;
      const CheckItem& item = items[i];
      if (!metrics_finite(item.got)) {
        fail(item.scenario, "non-finite metric");
        continue;
      }
      try {
        const SimMetrics ref =
            tac3d::sim::run_scenario(reference_spec(item.scenario));
        std::string why;
        if (!metrics_match(item.got, ref, &why)) fail(item.scenario, why);
      } catch (const std::exception& e) {
        fail(item.scenario, std::string("reference threw: ") + e.what());
      }
    }
  };
  std::vector<std::thread> pool;
  const int n = std::max(1, std::min<int>(workers, static_cast<int>(items.size())));
  for (int t = 0; t < n; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  return failed.load();
}

int self_test() {
  Scenario s;
  s.tiers = 2;
  s.policy = tac3d::sim::PolicyKind::kLcFuzzy;
  s.workload = tac3d::power::WorkloadKind::kWebServer;
  s.trace_seconds = 10;
  s.grid = tac3d::thermal::GridOptions{8, 8};
  const tac3d::sim::SweepReport report = tac3d::sim::run_sweep({s}, {});
  if (!report.all_ok()) {
    std::cerr << "self-test: the sample scenario failed\n";
    return 1;
  }
  const SimMetrics good = report.at(0).metrics;

  SimMetrics scalar = good;
  scalar.chip_energy *= 1.0 + 10.0 * kRelTol;
  SimMetrics per_core = good;
  per_core.core_hot_time.at(0) += 1.0;
  SimMetrics nan = good;
  nan.peak_temp = std::numeric_limits<double>::quiet_NaN();

  struct Case {
    const char* name;
    SimMetrics got;
    std::size_t expect_failed;
  };
  const Case cases[] = {{"unperturbed", good, 0},
                        {"scalar perturbed by 10x tolerance", scalar, 1},
                        {"per-core entry perturbed", per_core, 1},
                        {"non-finite peak temperature", nan, 1}};
  int rc = 0;
  for (const Case& c : cases) {
    const std::size_t failed = check_against_reference({{s, c.got}}, 1);
    const bool ok = failed == c.expect_failed;
    std::cout << "self-test " << (ok ? "ok  " : "FAIL") << "  " << c.name
              << ": counted " << failed << " failed (expected "
              << c.expect_failed << ")\n";
    if (!ok) rc = 1;
  }
  return rc;
}

}  // namespace perfbench
