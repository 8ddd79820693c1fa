#include "nemesis/runner.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

#include "bcc/harness.hpp"
#include "common/check.hpp"

namespace chc::nemesis {

std::string_view outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kDecided: return "decided";
    case Outcome::kStalledSafe: return "stalled-safe";
    case Outcome::kViolation: return "violation";
  }
  return "?";
}

std::string summarize(const ScenarioResult& r) {
  std::ostringstream os;
  os << r.name << " seed=" << r.seed << " -> " << outcome_name(r.outcome)
     << (r.passed ? " [pass]" : " [FAIL]") << " decided=" << r.decided
     << " latency=" << r.decide_latency << " rounds=" << r.rounds_to_decide
     << " msgs=" << r.messages_sent << " retx=" << r.retransmits
     << " recoveries=" << r.recoveries << " resets=" << r.channel_resets;
  if (!r.check.ok()) {
    os << " violations=" << r.check.violations.size();
    if (!r.check.violations.empty()) {
      os << " first=[" << obs::describe(r.check.violations.front()) << "]";
    }
  }
  return os.str();
}

ScenarioResult run_scenario(const ScenarioSpec& spec, obs::Registry* metrics) {
  CHC_CHECK(spec.crash_count <= spec.cc.f,
            "crash_count exceeds the workload fault budget f");
  ScenarioResult r;
  r.name = spec.name;
  r.seed = spec.seed;

  const core::Workload workload = core::make_workload(
      spec.cc.n, spec.crash_count, spec.cc.d, spec.pattern, spec.seed,
      spec.cc.fault_model == core::FaultModel::kCrashIncorrectInputs);
  const Scenario::Compiled compiled = spec.scenario.compile(spec.cc.n);

  core::LossyRunConfig lc;
  lc.base.cc = spec.cc;
  lc.base.pattern = spec.pattern;
  lc.base.crash_style = core::CrashStyle::kNone;  // scenario plans rule
  lc.base.delay = spec.delay;
  lc.base.seed = spec.seed;
  lc.policy = compiled.policy;
  lc.schedule = compiled.schedule;
  lc.storms = compiled.storms;
  if (compiled.crashes.planned_crashes() > 0) {
    lc.crash_plans = compiled.crashes;
  }
  lc.rel = spec.rel;
  lc.reliable = true;

  obs::MemorySink sink;
  obs::Tracer tracer(&sink);
  lc.tracer = &tracer;
  lc.metrics = metrics;

  core::LossyRunOutput out;
  if (!compiled.byz.empty()) {
    // Byzantine steps reroute the whole run onto the BCC harness; the
    // scenario's byzantine targets must be exactly the workload's faulty
    // set (presets guarantee it: builders receive the faulty pids).
    CHC_CHECK(workload.faulty.size() == compiled.byz.size() &&
                  std::all_of(workload.faulty.begin(), workload.faulty.end(),
                              [&](sim::ProcessId p) {
                                return compiled.byz.count(p) != 0;
                              }),
              "byzantine targets must be the workload's faulty pids");
    bcc::ByzRunConfig bc;
    bc.lossy = lc;
    bc.behaviors = compiled.byz;
    out = bcc::run_bcc_custom(bc, workload);
  } else {
    out = core::run_cc_lossy_custom(lc, workload);
  }

  r.trace_lines = sink.lines();
  r.check = obs::check_sink(sink);
  r.cert = out.cert;

  const std::vector<sim::ProcessId> decided = out.trace->decided();
  r.decided = decided.size();
  r.messages_sent = out.stats.messages_sent;
  r.retransmits = out.shims.retransmits;
  r.recoveries = out.stats.recoveries;
  r.channel_resets = out.shims.channel_resets;
  r.quiescent = out.quiescent;
  r.end_time = out.stats.end_time;
  for (const obs::TraceEvent& e : sink.events()) {
    if (e.kind != obs::EventKind::kDecide) continue;
    r.decide_latency = std::max(r.decide_latency, e.t);
    r.rounds_to_decide = std::max(r.rounds_to_decide, e.round);
  }

  if (!r.check.ok()) {
    r.outcome = Outcome::kViolation;
  } else {
    // Expected deciders: fault-free per the workload AND not scheduled to
    // crash by the scenario (an over-budget scenario crashes non-faulty
    // processes; they are excused, everyone else is not).
    const std::set<sim::ProcessId> faulty(workload.faulty.begin(),
                                          workload.faulty.end());
    const std::set<sim::ProcessId> decided_set(decided.begin(),
                                               decided.end());
    bool all_decided = true;
    for (sim::ProcessId p = 0; p < spec.cc.n; ++p) {
      if (faulty.count(p) != 0) continue;
      if (compiled.crashes.plan_for(p) != nullptr) continue;
      if (decided_set.count(p) == 0) {
        all_decided = false;
        break;
      }
    }
    r.outcome = (all_decided && r.quiescent) ? Outcome::kDecided
                                             : Outcome::kStalledSafe;
  }
  r.passed = r.check.ok() &&
             r.outcome == (spec.expect_decide ? Outcome::kDecided
                                              : Outcome::kStalledSafe);

  if (metrics != nullptr) {
    metrics->counter("nemesis.runs").inc();
    if (r.outcome == Outcome::kDecided) metrics->counter("nemesis.decided_runs").inc();
    if (r.outcome == Outcome::kViolation) metrics->counter("nemesis.violations").inc();
    if (!r.passed) metrics->counter("nemesis.failed_runs").inc();
    metrics->gauge("nemesis.decide_latency").set(r.decide_latency);
    metrics->gauge("nemesis.rounds_to_decide")
        .set(static_cast<double>(r.rounds_to_decide));
  }
  return r;
}

}  // namespace chc::nemesis
