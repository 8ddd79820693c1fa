// Consensus benchmark: options, result report and the four workloads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace chc::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: every metric it measured plus the correctness
/// verdict. The command wrapper (run.py) selects the BENCHMARK.json names.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False on any failed instance or traced/untraced decision mismatch.
  bool correct = true;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::uint64_t k = 1) {
    failed += k;
    if (k > 0) correct = false;
  }
};

Report run_svc(const Options& o);
Report run_sim_d3(const Options& o);
Report run_nemesis(const Options& o);
Report run_live(const Options& o);

}  // namespace chc::perfbench
