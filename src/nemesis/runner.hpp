// Nemesis scenario runner: execute one Scenario, verify, summarize.
//
// run_scenario() is the single execution path of the nemesis harness:
// it generates a workload (the scenario's crash targets are exactly the
// workload's faulty set), lowers the Scenario onto core::run_cc_lossy_custom,
// records the full JSONL trace in memory, re-verifies the run with the
// verification oracle's typed-event front-end (obs::check_sink — the judge
// tools/chc_check runs after parsing), classifies the outcome and extracts
// summary metrics.
//
// Outcome classification:
//   kDecided      every process that is neither workload-faulty nor
//                 scheduled to crash decided, and the execution quiesced;
//   kStalledSafe  the run is checker-clean but some expected decider did
//                 not decide (e.g. an unhealed partition, or more than f
//                 simultaneous crashes — the over-budget case the checker
//                 reports as non-deciding rather than unsafe);
//   kViolation    the checker found an invariant violation (this is the
//                 signal the fuzz suite exists to hunt).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/lossy.hpp"
#include "nemesis/scenario.hpp"
#include "obs/checker.hpp"
#include "obs/metrics.hpp"

namespace chc::nemesis {

/// Everything needed to execute a scenario once.
struct ScenarioSpec {
  std::string name = "scenario";
  core::CCConfig cc;  ///< n / f / d / eps
  core::InputPattern pattern = core::InputPattern::kUniform;
  core::DelayRegime delay = core::DelayRegime::kUniform;
  net::ReliableParams rel;
  std::uint64_t seed = 1;
  /// Workload faulty-set size (<= cc.f). The scenario builder receives
  /// these pids as its crash targets, so crashed processes carry incorrect
  /// inputs exactly like the paper's adversary.
  std::size_t crash_count = 0;
  bool expect_decide = true;
  Scenario scenario;
};

enum class Outcome { kDecided, kStalledSafe, kViolation };

std::string_view outcome_name(Outcome o);

struct ScenarioResult {
  std::string name;
  std::uint64_t seed = 0;
  Outcome outcome = Outcome::kStalledSafe;
  bool passed = false;  ///< checker-clean and outcome == expectation
  obs::CheckReport check;
  core::Certificate cert;  ///< the run's in-memory certificate
  std::vector<std::string> trace_lines;  ///< full JSONL trace of the run

  // Summary metrics.
  std::size_t decided = 0;           ///< processes with a decision
  double decide_latency = 0.0;       ///< sim time of the last decision
  std::size_t rounds_to_decide = 0;  ///< max decision round (== t_end)
  std::uint64_t messages_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t channel_resets = 0;
  bool quiescent = false;
  double end_time = 0.0;
};

/// One-line human-readable summary (CLI / test logging).
std::string summarize(const ScenarioResult& r);

/// Executes the spec. `metrics` (optional) additionally receives the run's
/// registry counters (sim.*, net.rel.*) plus the nemesis.* summary.
ScenarioResult run_scenario(const ScenarioSpec& spec,
                            obs::Registry* metrics = nullptr);

}  // namespace chc::nemesis
