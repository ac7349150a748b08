// service_mix: a closed loop of clients against a ServiceServer on
// loopback. Each client sends its next request only after the previous
// one completed. About 11 of every 12 requests are single-scenario
// what-ifs; the 12th is a Fig. 7-style sweep request (LC_LB vs LC_FUZZY
// on both stacks for two workloads, plus up to two AC_LB baselines).
#include <algorithm>
#include <atomic>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "sim/bank.hpp"
#include "sim/sweep.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace tac3d;

constexpr int kGrid = 12;
constexpr int kTraceSeconds = 20;
/// Request i is a sweep request when i % kSweepEvery == kSweepEvery - 1.
constexpr std::size_t kSweepEvery = 12;
/// Requests per round; a round ends when all of them completed.
constexpr std::size_t kRoundRequests = 4 * kSweepEvery;
/// paper_dev_pts pools every scenario of the first kPaperRounds rounds,
/// which every untraced run completes, so the value is fixed by the seed.
constexpr std::size_t kPaperRounds = 8;

struct Request {
  std::vector<sim::Scenario> scenarios;
  bool sweep = false;
  int cores = 1;
};

sim::Scenario make_scenario(int tiers, sim::PolicyKind policy,
                            power::WorkloadKind workload, std::uint64_t seed) {
  sim::Scenario s;
  s.tiers = tiers;
  s.policy = policy;
  s.workload = workload;
  s.trace_seconds = kTraceSeconds;
  s.seed = seed;
  s.grid = thermal::GridOptions{kGrid, kGrid};
  return s;
}

/// The seeded request sequence. What-ifs cycle through every stack x
/// policy cell and draw their workload and a fresh trace seed, so they
/// miss the bank's trace and steady tiers. Sweep requests cycle through
/// the workloads on a fresh trace seed shared by their scenarios.
class RequestGenerator {
 public:
  explicit RequestGenerator(std::uint64_t seed) : rng_(seed) {}

  Request next() {
    const std::size_t i = issued_++;
    const auto workloads = power::average_case_workloads();
    Request r;
    if (i % kSweepEvery == kSweepEvery - 1) {
      r.sweep = true;
      r.cores = 2;
      // Sweep j covers workloads j and j+1 (mod 4): every four sweeps
      // see each average-case workload twice.
      const std::uint64_t seed = fresh_seed();
      const std::size_t j = sweeps_++;
      const auto w0 = workloads[j % workloads.size()];
      const auto w1 = workloads[(j + 1) % workloads.size()];
      for (const auto w : {w0, w1}) {
        for (const int tiers : {2, 4}) {
          for (const auto p : {sim::PolicyKind::kLcLb, sim::PolicyKind::kLcFuzzy}) {
            r.scenarios.push_back(make_scenario(tiers, p, w, seed));
          }
        }
      }
      const std::uint64_t extra = rng_() % 3;
      for (std::uint64_t k = 0; k < extra; ++k) {
        r.scenarios.push_back(make_scenario(k == 0 ? 2 : 4,
                                            sim::PolicyKind::kAcLb, w0, seed));
      }
      return r;
    }
    static const sim::PolicyKind kPolicies[] = {
        sim::PolicyKind::kAcLb, sim::PolicyKind::kAcTdvfsLb,
        sim::PolicyKind::kLcLb, sim::PolicyKind::kLcTdvfsLb,
        sim::PolicyKind::kLcFuzzy};
    const std::size_t k = what_ifs_++;
    const int tiers = k % 2 == 0 ? 2 : 4;
    sim::PolicyKind policy = kPolicies[(k / 2) % 5];
    // The paper does not evaluate 4-tier AC_TDVFS_LB (nor does Fig. 6/7).
    if (tiers == 4 && policy == sim::PolicyKind::kAcTdvfsLb) {
      policy = sim::PolicyKind::kAcLb;
    }
    const auto w = workloads[rng_() % workloads.size()];
    r.scenarios.push_back(make_scenario(tiers, policy, w, fresh_seed()));
    return r;
  }

 private:
  std::uint64_t fresh_seed() {
    // Never 0: seed 0 is reserved for the set-up pre-warm scenarios.
    return 1 + rng_() % 0x7fffffffULL;
  }

  std::mt19937_64 rng_;
  std::size_t issued_ = 0, what_ifs_ = 0, sweeps_ = 0;
};

/// The bank's model tier, filled at set-up: one scenario per stack x
/// cooling the requests use, on a trace seed no request draws.
std::vector<sim::Scenario> prewarm_scenarios() {
  std::vector<sim::Scenario> v;
  for (const int tiers : {2, 4}) {
    for (const auto p : {sim::PolicyKind::kAcLb, sim::PolicyKind::kLcLb}) {
      v.push_back(make_scenario(tiers, p, power::WorkloadKind::kWebServer, 0));
    }
  }
  return v;
}

struct Record {
  bool ok = false;
  bool traced = false;
  double latency_ms = 0.0;
  double ack_ms = 0.0;
  double first_ms = 0.0;
  std::vector<sim::SimMetrics> metrics;  ///< by scenario index
};

/// Registry snapshot as the service streams it (query_metrics):
/// counters and histograms, rebuilt into an obs::Snapshot.
obs::Snapshot to_snapshot(const service::protocol::MetricsMsg& msg) {
  obs::Snapshot s;
  for (const auto& e : msg.entries) {
    if (e.kind == service::protocol::MetricEntryMsg::kCounter) {
      s.counters[e.name] = e.count;
    } else if (e.kind == service::protocol::MetricEntryMsg::kHistogram) {
      s.histograms[e.name] =
          obs::Histogram::from_parts(e.count, e.value, e.min, e.max, e.buckets);
    }
  }
  return s;
}

/// Send one request and wait for its whole result stream.
void serve(service::ServiceClient& client, const Request& req,
           std::uint64_t id, Record& rec) {
  const Stopwatch sw;
  try {
    service::protocol::SubmitAckMsg ack;
    {
      const obs::TraceSpan span("bench/submit_sweep");
      ack = client.submit_sweep(req.scenarios, req.cores,
                                static_cast<std::uint32_t>(id));
    }
    rec.ack_ms = sw.millis();
    rec.first_ms = -1.0;
    service::SweepOutcome outcome;
    {
      const obs::TraceSpan span("bench/collect");
      outcome = client.collect(ack.job_id, [&](const auto&) {
        if (rec.first_ms >= 0.0) return;
        rec.first_ms = sw.millis();
        // Zero-length span: marks the first result's arrival.
        const obs::TraceSpan first("bench/first_result");
      });
    }
    rec.latency_ms = sw.millis();
    const std::size_t n = req.scenarios.size();
    rec.metrics.assign(n, {});
    std::size_t good = 0;
    for (const auto& r : outcome.results) {
      if (r.index >= n) continue;
      if (!r.ok) {
        std::cerr << "check: request " << id << " scenario " << r.index << ": "
                  << r.error << '\n';
        continue;
      }
      if (!metrics_finite(r.metrics)) {
        std::cerr << "check: request " << id << ": non-finite metric\n";
        continue;
      }
      rec.metrics[r.index] = r.metrics;
      ++good;
    }
    rec.ok = good == n && outcome.complete.failed == 0 &&
             !outcome.complete.was_cancelled;
  } catch (const std::exception& e) {
    rec.latency_ms = sw.millis();
    std::cerr << "check: request " << id << " failed: " << e.what() << '\n';
  }
}

/// Run requests [begin, end) closed-loop: each client takes the next
/// unsent request once its previous one completed.
template <typename Fn>
void closed_loop(int clients, std::size_t begin, std::size_t end, Fn&& fn) {
  std::atomic<std::size_t> next{begin};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= end) return;
        fn(c, i);
      }
    });
  }
  for (auto& t : threads) t.join();
}

}  // namespace

RunResult run_service_mix(const RunConfig& cfg) {
  RunResult out;
  init_metrics(out, cfg.traced);
  const std::vector<sim::Scenario> prewarm = prewarm_scenarios();
  const double n_prewarm = static_cast<double>(prewarm.size());

  // --- set-up: boot the server and pre-warm its bank's model tier,
  // repeated (median reported); the last server stays up.
  std::vector<double> setup_reps, prepare_reps;
  std::unique_ptr<service::ServiceServer> server;
  std::shared_ptr<sim::ScenarioBank> bank;
  while (another_setup_rep(setup_reps)) {
    if (server) server->stop();
    server.reset();
    const Stopwatch sw;
    bank = std::make_shared<sim::ScenarioBank>();
    service::ServerOptions opts;
    opts.service.core_budget = kWorkers;
    opts.service.bank = bank;
    server = std::make_unique<service::ServiceServer>(opts);
    server->start();
    const Stopwatch prep_sw;
    for (const sim::Scenario& s : prewarm) (void)bank->prepare(s);
    prepare_reps.push_back(prep_sw.seconds());
    setup_reps.push_back(sw.seconds());
  }
  const Stopwatch warm_sw;
  for (const sim::Scenario& s : prewarm) (void)bank->prepare(s);
  const double warm_s = warm_sw.seconds();
  if (cfg.traced) {
    // One more cold pre-warm, untimed, with the trace on.
    sim::ScenarioBank traced_bank;
    obs::trace_begin(trace_path(cfg, "prepare"));
    for (const sim::Scenario& s : prewarm) {
      const obs::TraceSpan span("bench/prepare");
      (void)traced_bank.prepare(s);
    }
    obs::trace_end();
  }
  release_free_memory();

  std::vector<std::unique_ptr<service::ServiceClient>> clients;
  for (int c = 0; c < kWorkers; ++c) {
    clients.push_back(std::make_unique<service::ServiceClient>());
    clients.back()->connect("127.0.0.1", server->port());
  }
  service::ServiceClient monitor;
  if (cfg.traced) monitor.connect("127.0.0.1", server->port());

  // --- timed phase: rounds of kRoundRequests closed-loop requests until
  // the measuring time is up; a traced run alternates untraced and
  // traced rounds.
  RequestGenerator gen(cfg.seed);
  std::vector<Request> requests;
  std::vector<Record> records;
  std::vector<double> round_wall;
  std::vector<bool> round_traced;
  obs::Snapshot reg;
  obs::Histogram admission;
  double rss_mb = 0.0;
  const Stopwatch phase;
  for (std::size_t r = 0;
       another_round(round_wall, phase.seconds(), cfg.seconds,
                     cfg.traced ? 2 : kPaperRounds);
       ++r) {
    const bool traced = cfg.traced && r % 2 == 1;
    const std::size_t begin = requests.size();
    const std::size_t end = begin + kRoundRequests;
    while (requests.size() < end) requests.push_back(gen.next());
    records.resize(end);
    // Registry queries sit outside the trace window, so the trace ends
    // with no service request in flight.
    obs::Snapshot before;
    if (traced) {
      before = to_snapshot(monitor.query_metrics());
      obs::trace_begin(trace_path(cfg, "round" + std::to_string(r)));
    }
    const Stopwatch sw;
    closed_loop(kWorkers, begin, end, [&](int c, std::size_t i) {
      records[i].traced = traced;
      serve(*clients[static_cast<std::size_t>(c)], requests[i], i + 1,
            records[i]);
    });
    round_wall.push_back(sw.seconds());
    if (traced) {
      obs::trace_end();
      const obs::Snapshot delta =
          to_snapshot(monitor.query_metrics()).since(before);
      for (const auto& [name, v] : delta.counters) reg.counters[name] += v;
      const auto it = delta.histograms.find("service/admission_wait_ms");
      if (it != delta.histograms.end()) admission.merge(it->second);
    }
    round_traced.push_back(traced);
    if (round_wall.size() <= kRssRounds) rss_mb = peak_rss_mb();
    release_free_memory();
    std::cerr << "round " << r << (traced ? " traced" : "") << ": "
              << round_wall.back() << " s\n";
  }

  // --- output check (untimed): every request counts, failed ones
  // (refused, errored, non-finite) count as failed; then a seeded sample
  // of replies is recomputed through the reference path.
  std::mt19937_64 rng(cfg.seed ^ 0x636865636bULL);
  std::map<std::string, std::vector<std::size_t>> cells;
  std::vector<std::string> cell_order;
  std::vector<std::size_t> sweeps;
  for (std::size_t i = 0; i < records.size(); ++i) {
    ++out.attempted;
    if (!records[i].ok) {
      ++out.failed;
      continue;
    }
    if (requests[i].sweep) {
      sweeps.push_back(i);
      continue;
    }
    const std::string key = stack_policy(requests[i].scenarios.front());
    if (!cells.count(key)) cell_order.push_back(key);
    cells[key].push_back(i);
  }
  std::vector<CheckItem> sample;
  for (const std::string& key : cell_order) {
    const auto& members = cells[key];
    const std::size_t i = members[rng() % members.size()];
    sample.push_back({requests[i].scenarios.front(), records[i].metrics.front()});
  }
  if (!sweeps.empty()) {
    const std::size_t i = sweeps[rng() % sweeps.size()];
    for (std::size_t k = 0; k < requests[i].scenarios.size(); ++k) {
      sample.push_back({requests[i].scenarios[k], records[i].metrics[k]});
    }
  }
  out.failed += check_against_reference(sample, kWorkers);

  // --- service vs direct (traced runs): the same rounds through
  // run_sweep from the same number of threads, on a bank pre-warmed the
  // same way.
  double direct_t_wall = 0.0;
  if (cfg.traced) {
    auto direct_bank = std::make_shared<sim::ScenarioBank>();
    for (const sim::Scenario& s : prewarm) (void)direct_bank->prepare(s);
    for (std::size_t r = 0; r < round_wall.size(); ++r) {
      const Stopwatch sw;
      closed_loop(kWorkers, r * kRoundRequests, (r + 1) * kRoundRequests,
                  [&](int, std::size_t i) {
                    sim::SweepOptions opts;
                    opts.jobs = 1;
                    opts.bank = direct_bank;
                    (void)sim::run_sweep(requests[i].scenarios, opts);
                  });
      if (round_traced[r]) direct_t_wall += sw.seconds();
    }
  }

  clients.clear();
  monitor.close();
  server->stop();

  if (!cfg.traced) {
    // Rates are medians over rounds; latencies pool every request.
    std::vector<double> latency, sim_rate, request_rate;
    for (std::size_t r = 0; r < round_wall.size(); ++r) {
      double sim_s = 0.0;
      for (std::size_t i = r * kRoundRequests; i < (r + 1) * kRoundRequests;
           ++i) {
        latency.push_back(records[i].latency_ms);
        if (!records[i].ok) continue;
        for (const auto& m : records[i].metrics) sim_s += m.duration;
      }
      sim_rate.push_back(sim_s / round_wall[r]);
      request_rate.push_back(static_cast<double>(kRoundRequests) /
                             round_wall[r]);
    }
    std::vector<EnergySample> paper;
    for (std::size_t i = 0; i < kPaperRounds * kRoundRequests; ++i) {
      if (!records[i].ok) continue;
      for (std::size_t j = 0; j < requests[i].scenarios.size(); ++j) {
        const sim::Scenario& s = requests[i].scenarios[j];
        paper.push_back({s.tiers, s.policy, records[i].metrics[j].chip_energy,
                         records[i].metrics[j].pump_energy});
      }
    }
    out.set("sim_s_per_s", median(sim_rate), "s/s");
    out.set("setup_s", median(setup_reps), "s");
    out.set("peak_rss_mb", rss_mb, "MiB");
    out.set("paper_dev_pts", paper_dev_pts(paper), "pts");
    out.set("requests_per_s", median(request_rate), "1/s");
    out.set("request_p50_ms", quantile(latency, 0.5), "ms");
    out.set("request_p90_ms", quantile(latency, 0.9), "ms");
    return out;
  }

  double t_wall = 0.0, u_wall = 0.0, t_n = 0.0, u_n = 0.0;
  for (std::size_t r = 0; r < round_wall.size(); ++r) {
    (round_traced[r] ? t_wall : u_wall) += round_wall[r];
    (round_traced[r] ? t_n : u_n) += static_cast<double>(kRoundRequests);
  }
  std::vector<double> ack, ttfr;
  double t_latency = 0.0, t_ack = 0.0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!records[i].traced) continue;
    ack.push_back(records[i].ack_ms);
    t_ack += records[i].ack_ms;
    t_latency += records[i].latency_ms;
    if (requests[i].sweep && records[i].first_ms >= 0.0) {
      ttfr.push_back(records[i].first_ms);
    }
  }
  auto hit_frac = [&](const char* tier) {
    const auto get = [&](const std::string& n) {
      const auto it = reg.counters.find(n);
      return it == reg.counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    const double h = get(std::string("bank/") + tier + "_hits");
    const double m = get(std::string("bank/") + tier + "_misses");
    return ratio(h, h + m);
  };
  const double service_rps = ratio(t_n, t_wall);
  const double direct_rps = ratio(t_n, direct_t_wall);
  out.set("service.submit_ack_ms", median(ack), "ms");
  out.set("service.admission_wait_ms_p90", admission.quantile(0.9), "ms");
  out.set("service.ttfr_p50_ms", median(ttfr), "ms");
  out.set("service.overhead_frac", 1.0 - ratio(service_rps, direct_rps),
          "frac");
  out.set("bank.prepare_cold_ms", median(prepare_reps) / n_prewarm * 1e3, "ms");
  out.set("bank.prepare_warm_ms", warm_s / n_prewarm * 1e3, "ms");
  out.set("bank.trace_hit_frac", hit_frac("trace"), "frac");
  out.set("bank.model_hit_frac", hit_frac("model"), "frac");
  out.set("bank.steady_hit_frac", hit_frac("steady"), "frac");
  out.set("trace.overhead_frac",
          ratio(ratio(t_wall, t_n), ratio(u_wall, u_n)) - 1.0, "frac");
  // The service path publishes no per-scenario time split yet, so only
  // the submit/ack exchange and the admission wait are attributable.
  out.set("trace.closure_frac", ratio(t_ack + admission.sum(), t_latency),
          "frac");
  return out;
}

}  // namespace perfbench
