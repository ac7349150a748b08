// paper_matrix and periodic_horizon: scenario lists driven through
// sim::run_sweep on a bank that cold set-up filled, repeated until the
// measuring time is up.
#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>

#include "check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/bank.hpp"
#include "sim/sweep.hpp"
#include "thermal/operator.hpp"
#include "thermal/transient.hpp"
#include "workloads.hpp"

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"sim_s_per_s", "s/s"},       {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},       {"paper_dev_pts", "pts"},
    {"requests_per_s", "1/s"},    {"request_p50_ms", "ms"},
    {"request_p90_ms", "ms"},
};

const std::vector<MetricDef> kPerLayer = {
    {"service.submit_ack_ms", "ms"},
    {"service.admission_wait_ms_p90", "ms"},
    {"service.ttfr_p50_ms", "ms"},
    {"service.overhead_frac", "frac"},
    {"sweep.worker_util_min", "frac"},
    {"sweep.worker_util_avg", "frac"},
    {"sweep.makespan_ratio", "ratio"},
    {"bank.prepare_cold_ms", "ms"},
    {"bank.prepare_warm_ms", "ms"},
    {"bank.trace_hit_frac", "frac"},
    {"bank.model_hit_frac", "frac"},
    {"bank.steady_hit_frac", "frac"},
    {"batch.batched_frac", "frac"},
    {"batch.lanes_avg", "lanes"},
    {"batch.compaction_events", "count"},
    {"replay.steps_frac", "frac"},
    {"replay.steps_frac_iterative", "frac"},
    {"replay.solves_skipped", "count"},
    {"replay.cycles", "count"},
    {"tail.frac", "frac"},
    {"tail.us_per_step", "us"},
    {"solver.frac", "frac"},
    {"solver.us_per_solve", "us"},
    {"solver.solves", "count"},
    {"solver.iters_per_solve", "iters"},
    {"solver.refactors", "count"},
    {"solver.factor_cache_hits", "count"},
    {"solver.predictor_hits", "count"},
    {"kernel.bytes_per_iter", "B"},
    {"kernel.gbps", "GB/s"},
    {"trace.overhead_frac", "frac"},
    {"trace.closure_frac", "frac"},
};

void init_metrics(RunResult& out, bool traced) {
  for (const MetricDef& d : traced ? kPerLayer : kEndToEnd) {
    out.set(d.name, 0.0, d.unit);
  }
}

double paper_dev_pts(const std::vector<EnergySample>& samples) {
  struct Cell {
    double chip = 0.0, pump = 0.0;
    int n = 0;
  };
  std::map<std::pair<int, tac3d::sim::PolicyKind>, Cell> cells;
  for (const EnergySample& s : samples) {
    Cell& c = cells[{s.tiers, s.policy}];
    c.chip += s.chip;
    c.pump += s.pump;
    ++c.n;
  }
  auto cell = [&](int tiers, tac3d::sim::PolicyKind p) {
    const auto it = cells.find({tiers, p});
    if (it == cells.end() || it->second.n == 0) {
      throw std::runtime_error("paper_dev_pts: no " + std::to_string(tiers) +
                               "-tier " + tac3d::sim::policy_label(p) +
                               " sample");
    }
    const Cell& c = it->second;
    return std::pair<double, double>{c.chip / c.n, c.pump / c.n};
  };
  auto saving = [](double base, double val) {
    return 100.0 * (base - val) / base;
  };
  const struct {
    int tiers;
    double system, cooling;
  } paper[] = {{2, 14.0, 50.0}, {4, 18.0, 52.0}};
  double dev = 0.0;
  for (const auto& p : paper) {
    const auto [lb_chip, lb_pump] = cell(p.tiers, tac3d::sim::PolicyKind::kLcLb);
    const auto [fz_chip, fz_pump] =
        cell(p.tiers, tac3d::sim::PolicyKind::kLcFuzzy);
    dev = std::max(dev, std::abs(saving(lb_chip + lb_pump, fz_chip + fz_pump) -
                                 p.system));
    dev = std::max(dev, std::abs(saving(lb_pump, fz_pump) - p.cooling));
  }
  return dev;
}

bool another_setup_rep(const std::vector<double>& reps) {
  double total = 0.0;
  for (const double r : reps) total += r;
  return reps.size() < 11 || (total < 4.0 && reps.size() < 60);
}

bool another_round(const std::vector<double>& walls, double elapsed,
                   double seconds, std::size_t min_rounds) {
  if (walls.size() < min_rounds) return true;
  return elapsed + median(walls) <= seconds;
}

std::string stack_policy(const tac3d::sim::Scenario& s) {
  return std::to_string(s.tiers) + "-tier " + tac3d::sim::policy_label(s.policy);
}

namespace {

using namespace tac3d;

/// Control steps of a finished scenario.
int scenario_steps(const sim::Scenario& s, const sim::SimMetrics& m) {
  return static_cast<int>(std::lround(m.duration / s.sim.control_dt));
}

std::uint64_t counter(const obs::Snapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

bool is_iterative(const sim::Scenario& s) {
  return s.sim.solver != sparse::SolverKind::kBandedLu;
}

/// Cell of the reference sample: stack x policy x solver, so that every
/// banded-LU cell (where replay locks) is recomputed with replay off.
std::string check_cell(const sim::Scenario& s) {
  return stack_policy(s) + (is_iterative(s) ? " iterative" : " banded-LU");
}

/// What distinguishes the two sweep workloads.
struct SweepWorkload {
  std::vector<sim::Scenario> scenarios;
  /// Paper fidelity of one round's results.
  std::function<double(const sim::SweepReport&)> paper_dev;
};

struct Round {
  sim::SweepReport report;
  double wall = 0.0;
  bool traced = false;
  obs::Snapshot delta;  ///< registry delta (traced rounds only)
};

/// Bytes one BiCGSTAB+ILU(0) iteration streams over a CSR matrix of
/// \p rows rows and \p nnz entries: two SpMVs and two ILU(0) sweeps
/// (12 B per entry for value + column index, 20-28 B per row for the
/// row pointer and the vectors read and written) plus six axpy-type
/// updates (24 B per row) and four dot products (16 B per row). A
/// computed model, not a measurement.
double bicgstab_bytes_per_iter(double rows, double nnz) {
  const double spmv = 12.0 * nnz + 20.0 * rows;
  const double ilu = 12.0 * nnz + 28.0 * rows;
  return 2.0 * spmv + 2.0 * ilu + 6.0 * 24.0 * rows + 4.0 * 16.0 * rows;
}

RunResult run_sweep_workload(const RunConfig& cfg, const SweepWorkload& w) {
  RunResult out;
  init_metrics(out, cfg.traced);
  const double n_scen = static_cast<double>(w.scenarios.size());

  // --- set-up: cold prepare of every scenario on a fresh bank, repeated
  // (median reported); the last bank stays warm for the timed phase.
  std::vector<double> setup_reps;
  std::shared_ptr<sim::ScenarioBank> bank;
  while (another_setup_rep(setup_reps)) {
    bank = std::make_shared<sim::ScenarioBank>();
    const Stopwatch sw;
    for (const sim::Scenario& s : w.scenarios) (void)bank->prepare(s);
    setup_reps.push_back(sw.seconds());
  }
  const double setup_s = median(setup_reps);
  std::cerr << "set-up: " << setup_reps.size() << " reps, median " << setup_s
            << " s\n";
  const Stopwatch warm_sw;
  for (const sim::Scenario& s : w.scenarios) (void)bank->prepare(s);
  const double warm_s = warm_sw.seconds();
  if (cfg.traced) {
    // One more cold pass, untimed, with the trace on: the bank's tier
    // spans nested in the benchmark's prepare spans.
    sim::ScenarioBank traced_bank;
    obs::trace_begin(trace_path(cfg, "prepare"));
    for (const sim::Scenario& s : w.scenarios) {
      const obs::TraceSpan span("bench/prepare");
      (void)traced_bank.prepare(s);
    }
    obs::trace_end();
  }
  release_free_memory();

  // --- timed phase: whole sweeps until the measuring time is up. A
  // traced run alternates untraced and traced rounds of identical work
  // (the bank is warm), so the two can be compared in one process.
  sim::SweepOptions opts;
  opts.jobs = kWorkers;
  opts.bank = bank;
  std::vector<Round> rounds;
  std::vector<double> walls;
  double rss_mb = 0.0;
  const Stopwatch phase;
  for (int r = 0; another_round(walls, phase.seconds(), cfg.seconds,
                                cfg.traced ? 2 : 1);
       ++r) {
    Round rd;
    rd.traced = cfg.traced && r % 2 == 1;
    obs::Snapshot before;
    if (rd.traced) {
      before = obs::snapshot();
      obs::trace_begin(trace_path(cfg, "round" + std::to_string(r)));
    }
    const Stopwatch sw;
    {
      const obs::TraceSpan span("bench/run_sweep");
      rd.report = sim::run_sweep(w.scenarios, opts);
    }
    rd.wall = sw.seconds();
    if (rd.traced) {
      obs::trace_end();
      rd.delta = obs::snapshot().since(before);
    }
    std::cerr << "round " << r << (rd.traced ? " traced" : "") << ": "
              << rd.wall << " s\n";
    walls.push_back(rd.wall);
    rounds.push_back(std::move(rd));
    if (rounds.size() <= kRssRounds) rss_mb = peak_rss_mb();
    release_free_memory();
  }

  // --- output check (untimed).
  for (const Round& rd : rounds) {
    for (std::size_t i = 0; i < rd.report.size(); ++i) {
      const sim::SweepResult& res = rd.report.at(i);
      ++out.attempted;
      if (!res.ok()) {
        std::cerr << "check: " << res.label() << ": " << res.error << '\n';
        ++out.failed;
        continue;
      }
      if (!metrics_finite(res.metrics)) {
        std::cerr << "check: " << res.label() << ": non-finite metric\n";
        ++out.failed;
        continue;
      }
      // Every round runs the same scenarios: it must reproduce round 0.
      const sim::SweepResult& first = rounds.front().report.at(i);
      std::string why;
      if (&rd != &rounds.front() && first.ok() &&
          !metrics_match(res.metrics, first.metrics, &why)) {
        std::cerr << "check: " << res.label() << ": differs from round 0 ("
                  << why << ")\n";
        ++out.failed;
      }
    }
  }
  const sim::SweepReport& last = rounds.back().report;
  {
    std::mt19937_64 rng(cfg.seed ^ 0x636865636bULL);
    std::map<std::string, std::vector<std::size_t>> cells;
    std::vector<std::string> order;
    for (std::size_t i = 0; i < last.size(); ++i) {
      if (!last.at(i).ok()) continue;
      const std::string key = check_cell(w.scenarios[i]);
      if (!cells.count(key)) order.push_back(key);
      cells[key].push_back(i);
    }
    std::vector<CheckItem> sample;
    for (const std::string& key : order) {
      const auto& members = cells[key];
      const std::size_t pick = members[rng() % members.size()];
      sample.push_back({w.scenarios[pick], last.at(pick).metrics});
    }
    out.failed += check_against_reference(sample, kWorkers);
  }

  if (!cfg.traced) {
    // A sweep user's request is one run_sweep call over the whole list:
    // rates are medians over rounds, latencies the rounds' wall times.
    std::vector<double> sim_rate, sweep_rate, sweep_ms;
    for (const Round& rd : rounds) {
      double sim_s = 0.0;
      for (const sim::SweepResult& res : rd.report.results()) {
        if (res.ok()) sim_s += res.metrics.duration;
      }
      sim_rate.push_back(sim_s / rd.wall);
      sweep_rate.push_back(1.0 / rd.wall);
      sweep_ms.push_back(rd.wall * 1e3);
    }
    out.set("sim_s_per_s", median(sim_rate), "s/s");
    out.set("setup_s", setup_s, "s");
    out.set("peak_rss_mb", rss_mb, "MiB");
    out.set("paper_dev_pts", w.paper_dev(last), "pts");
    out.set("requests_per_s", median(sweep_rate), "1/s");
    out.set("request_p50_ms", quantile(sweep_ms, 0.5), "ms");
    out.set("request_p90_ms", quantile(sweep_ms, 0.9), "ms");
    return out;
  }

  // --- per-layer metrics of the traced rounds.
  double t_rounds = 0.0, t_wall = 0.0, t_sim = 0.0, u_wall = 0.0, u_sim = 0.0;
  double util_min = 1.0, util_sum = 0.0, util_n = 0.0, makespan = 0.0;
  double batched = 0.0, lanes = 0.0, compactions = 0.0;
  double steps = 0.0, replayed = 0.0, it_steps = 0.0, it_replayed = 0.0;
  double cycles = 0.0, skipped = 0.0;
  double setup_sum = 0.0, solve = 0.0, tail = 0.0, stepping = 0.0;
  double capacity = 0.0, idle = 0.0;
  // Scalar-path (batch_lanes == 0) iterative solves and their solve
  // seconds: the population the registry's Krylov iterations cover.
  double scalar_it_solves = 0.0, scalar_it_solve_s = 0.0;
  std::map<std::string, double> it_steps_by_model;
  obs::Snapshot reg;
  for (const Round& rd : rounds) {
    double round_sim = 0.0;
    for (const sim::SweepResult& res : rd.report.results()) {
      if (res.ok()) round_sim += res.metrics.duration;
    }
    if (!rd.traced) {
      u_wall += rd.wall;
      u_sim += round_sim;
      continue;
    }
    t_rounds += 1.0;
    t_wall += rd.wall;
    t_sim += round_sim;
    const sim::SweepReport& rep = rd.report;
    const double jobs = rep.jobs_used();
    double busy = 0.0;
    for (const double u : rep.job_utilization()) {
      util_min = std::min(util_min, u);
      util_sum += u;
      util_n += 1.0;
    }
    for (const sim::SweepResult& res : rep.results()) {
      busy += res.wall_seconds;
      setup_sum += res.setup_seconds;
      solve += res.solve_seconds;
      tail += res.tail_seconds;
      stepping += res.stepping_seconds;
      if (res.batch_lanes > 0) {
        batched += 1.0;
        lanes += res.batch_lanes;
      }
      if (!res.ok()) continue;
      const double n = scenario_steps(res.scenario, res.metrics);
      const double solved = n - static_cast<double>(res.replay_steps);
      steps += n;
      replayed += static_cast<double>(res.replay_steps);
      if (is_iterative(res.scenario)) {
        it_steps += n;
        it_replayed += static_cast<double>(res.replay_steps);
      }
      if (res.batch_lanes > 0 || !is_iterative(res.scenario)) continue;
      scalar_it_solves += solved;
      scalar_it_solve_s += res.solve_seconds;
      it_steps_by_model[sim::scenario_model_key(res.scenario)] += solved;
    }
    makespan += ratio(rep.wall_seconds(), busy / jobs);
    capacity += jobs * rep.wall_seconds();
    idle += jobs * rep.wall_seconds() - busy;
    compactions += static_cast<double>(rep.batch_compaction_events());
    cycles += static_cast<double>(rep.replay_cycles_total());
    skipped += static_cast<double>(rep.replay_solves_skipped_total());
    for (const auto& [name, v] : rd.delta.counters) reg.counters[name] += v;
  }
  const double n_results = t_rounds * n_scen;

  // Computed kernel traffic: bytes per Krylov iteration of each model's
  // CSR matrix, weighted by the solved (not replayed) scalar iterative
  // steps.
  double bytes_weighted = 0.0, bytes_weight = 0.0;
  for (const auto& [model, weight] : it_steps_by_model) {
    for (const sim::Scenario& s : w.scenarios) {
      if (!is_iterative(s) || sim::scenario_model_key(s) != model) continue;
      sim::PreparedScenario p = bank->prepare(s);
      sim::SimulationSession session = p.session();
      const auto& a = session.thermal_solver().system_operator().matrix();
      bytes_weighted += weight * bicgstab_bytes_per_iter(
                                     a.rows(), static_cast<double>(a.nnz()));
      bytes_weight += weight;
      break;
    }
  }
  const double bytes_per_iter = ratio(bytes_weighted, bytes_weight);
  // Every solved (not replayed) control step is one linear solve per
  // scenario, scalar or batched lane. Krylov iterations are published
  // only by scalar-path sessions (the batched solver keeps its per-lane
  // counts to itself), so iterations, solves and solve seconds of the
  // iteration-based figures all come from scalar iterative results; on
  // paper_matrix those are the few scenarios left out of every batch.
  const double solves = steps - replayed;
  const double iterations =
      static_cast<double>(counter(reg, "solver/iterations"));
  auto hit_frac = [&](const char* tier) {
    const double h = counter(reg, std::string("bank/") + tier + "_hits");
    const double m = counter(reg, std::string("bank/") + tier + "_misses");
    return ratio(h, h + m);
  };

  out.set("sweep.worker_util_min", util_min, "frac");
  out.set("sweep.worker_util_avg", ratio(util_sum, util_n), "frac");
  out.set("sweep.makespan_ratio", ratio(makespan, t_rounds), "ratio");
  out.set("bank.prepare_cold_ms", setup_s / n_scen * 1e3, "ms");
  out.set("bank.prepare_warm_ms", warm_s / n_scen * 1e3, "ms");
  out.set("bank.trace_hit_frac", hit_frac("trace"), "frac");
  out.set("bank.model_hit_frac", hit_frac("model"), "frac");
  out.set("bank.steady_hit_frac", hit_frac("steady"), "frac");
  out.set("batch.batched_frac", ratio(batched, n_results), "frac");
  out.set("batch.lanes_avg", ratio(lanes, batched), "lanes");
  out.set("batch.compaction_events", ratio(compactions, t_rounds), "count");
  out.set("replay.steps_frac", ratio(replayed, steps), "frac");
  out.set("replay.steps_frac_iterative", ratio(it_replayed, it_steps), "frac");
  out.set("replay.solves_skipped", ratio(skipped, t_rounds), "count");
  out.set("replay.cycles", ratio(cycles, t_rounds), "count");
  out.set("tail.frac", ratio(tail, stepping), "frac");
  out.set("tail.us_per_step", ratio(tail, steps - replayed) * 1e6, "us");
  out.set("solver.frac", ratio(solve, stepping), "frac");
  out.set("solver.us_per_solve", ratio(solve, solves) * 1e6, "us");
  out.set("solver.solves", ratio(solves, t_rounds), "count");
  out.set("solver.iters_per_solve", ratio(iterations, scalar_it_solves),
          "iters");
  out.set("solver.refactors",
          ratio(counter(reg, "solver/refactors"), t_rounds), "count");
  out.set("solver.factor_cache_hits",
          ratio(counter(reg, "solver/factor_cache_hits"), t_rounds), "count");
  out.set("solver.predictor_hits",
          ratio(counter(reg, "predictor/hits"), t_rounds), "count");
  out.set("kernel.bytes_per_iter", bytes_per_iter, "B");
  out.set("kernel.gbps", ratio(bytes_per_iter * iterations, scalar_it_solve_s) / 1e9,
          "GB/s");
  out.set("trace.overhead_frac",
          ratio(ratio(t_wall, t_sim), ratio(u_wall, u_sim)) - 1.0, "frac");
  out.set("trace.closure_frac", ratio(setup_sum + solve + tail + idle, capacity),
          "frac");
  return out;
}

/// Strip the traces ScenarioMatrix::build() attaches, so trace synthesis
/// goes through the bank's trace tier like any caller-built scenario.
std::vector<sim::Scenario> detach_traces(std::vector<sim::Scenario> v) {
  for (sim::Scenario& s : v) s.trace.reset();
  return v;
}

}  // namespace

RunResult run_paper_matrix(const RunConfig& cfg) {
  auto workloads = power::average_case_workloads();
  workloads.push_back(power::WorkloadKind::kMaxUtil);
  SweepWorkload w;
  w.scenarios = detach_traces(sim::ScenarioMatrix::paper_fig67()
                                  .workloads(workloads)
                                  .trace_seconds(180)
                                  .seeds({cfg.seed})
                                  .build());
  w.paper_dev = [](const sim::SweepReport& rep) {
    std::vector<EnergySample> samples;
    for (const sim::SweepResult& r : rep.results()) {
      if (!r.ok() || r.scenario.workload == power::WorkloadKind::kMaxUtil) {
        continue;
      }
      samples.push_back({r.scenario.tiers, r.scenario.policy,
                         r.metrics.chip_energy, r.metrics.pump_energy});
    }
    return paper_dev_pts(samples);
  };
  return run_sweep_workload(cfg, w);
}

/// Length of the periodic_horizon traces [s]: tens of 12 s periods.
constexpr int kPeriodicHorizonSeconds = 480;

RunResult run_periodic_horizon(const RunConfig& cfg) {
  SweepWorkload w;
  w.scenarios = detach_traces(
      sim::ScenarioMatrix()
          .tiers({2, 4})
          .policies({sim::PolicyKind::kLcLb, sim::PolicyKind::kLcFuzzy})
          .workloads({power::WorkloadKind::kPeriodic})
          .solvers({sparse::SolverKind::kBicgstabIlu0,
                    sparse::SolverKind::kBandedLu})
          .trace_seconds(kPeriodicHorizonSeconds)
          .seeds({cfg.seed})
          .build());
  w.paper_dev = [](const sim::SweepReport& rep) {
    std::vector<EnergySample> samples;
    for (const sim::SweepResult& r : rep.results()) {
      if (!r.ok() || !is_iterative(r.scenario)) continue;
      samples.push_back({r.scenario.tiers, r.scenario.policy,
                         r.metrics.chip_energy, r.metrics.pump_energy});
    }
    return paper_dev_pts(samples);
  };
  return run_sweep_workload(cfg, w);
}

}  // namespace perfbench
