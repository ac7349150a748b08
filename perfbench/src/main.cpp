// perfbench: the repository benchmark runner.
//
//   perfbench --workload <paper_matrix|periodic_horizon|service_mix>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out PREFIX]
//   perfbench --self-test
//
// Prints the host record, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A traced run also writes Chrome trace events to
// PREFIX-prepare.json and PREFIX-round<r>.json (default PREFIX:
// perfbench-trace-<workload>). perfbench/run.py builds this binary and
// wraps it.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "check.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <paper_matrix|periodic_horizon|"
               "service_mix> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out PREFIX]\n"
               "       perfbench --self-test\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  fix_mmap_threshold();
  std::map<std::string, std::string> args;
  bool self_test_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--self-test") {
      self_test_mode = true;
    } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      args.emplace(key, argv[++i]);
    } else {
      return usage();
    }
  }
  std::cout << "host " << host_json() << std::endl;
  if (self_test_mode) return self_test();

  RunConfig cfg;
  try {
    cfg.workload = args.at("--workload");
    cfg.seed = std::stoull(args.at("--seed"));
    cfg.seconds = std::stod(args.at("--seconds"));
    cfg.traced = std::stoi(args.at("--trace")) != 0;
    cfg.trace_out = args.count("--trace-out") ? args["--trace-out"]
                                              : "perfbench-trace-" + cfg.workload;
  } catch (const std::exception&) {
    return usage();
  }
  if (cfg.seconds <= 0.0) return usage();

  using Runner = RunResult (*)(const RunConfig&);
  const std::map<std::string, Runner> runners = {
      {"paper_matrix", run_paper_matrix},
      {"periodic_horizon", run_periodic_horizon},
      {"service_mix", run_service_mix},
  };
  const auto it = runners.find(cfg.workload);
  if (it == runners.end()) return usage();

  try {
    const RunResult result = it->second(cfg);
    std::cout << result.json() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
