#include "core/harness.hpp"

#include <limits>
#include <set>

#include "common/check.hpp"
#include "core/lossy.hpp"
#include "core/process_cc.hpp"

namespace chc::core {

std::unique_ptr<sim::DelayModel> make_delay_model(
    DelayRegime regime, const std::vector<sim::ProcessId>& faulty,
    std::size_t n) {
  switch (regime) {
    case DelayRegime::kUniform:
      return std::make_unique<sim::UniformDelay>(0.1, 1.0);
    case DelayRegime::kExponential:
      return std::make_unique<sim::ExponentialDelay>(0.5);
    case DelayRegime::kLaggedFaulty:
      return std::make_unique<sim::PhasedLagDelay>(
          std::make_unique<sim::UniformDelay>(0.1, 1.0),
          std::set<sim::ProcessId>(faulty.begin(), faulty.end()), 50.0,
          /*until=*/std::numeric_limits<sim::Time>::infinity());
    case DelayRegime::kLaggedOneCorrect: {
      const std::set<sim::ProcessId> fset(faulty.begin(), faulty.end());
      sim::ProcessId lagged = 0;
      for (sim::ProcessId p = n; p-- > 0;) {
        if (fset.count(p) == 0) {
          lagged = p;
          break;
        }
      }
      // Transient lag: heavy during round 0 (so its write misses the other
      // processes' stable-vector scans and views genuinely differ), gone
      // afterwards (so the process participates in the iterate rounds and
      // message sets stay diverse).
      return std::make_unique<sim::PhasedLagDelay>(
          std::make_unique<sim::UniformDelay>(0.1, 1.0),
          std::set<sim::ProcessId>{lagged}, 40.0, /*until=*/12.0);
    }
  }
  CHC_INTERNAL(false, "unknown delay regime");
}

RunOutput run_cc_custom(const CCConfig& cc, const Workload& workload,
                        CrashStyle crash_style, DelayRegime delay,
                        std::uint64_t seed, obs::Tracer* tracer,
                        obs::Registry* metrics) {
  // Funnel into the unified lossy path with the injector and recovery shim
  // off: the execution (simulation construction, RNG forks, event order) is
  // identical to the historical dedicated path, and traced runs all share
  // one canonical header the replayer understands.
  LossyRunConfig lc;
  lc.base.cc = cc;
  lc.base.crash_style = crash_style;
  lc.base.delay = delay;
  lc.base.seed = seed;
  lc.reliable = false;
  lc.tracer = tracer;
  lc.metrics = metrics;
  LossyRunOutput lossy = run_cc_lossy_custom(lc, workload);

  RunOutput out;
  out.trace = std::move(lossy.trace);
  out.cert = std::move(lossy.cert);
  out.stats = lossy.stats;
  out.workload = std::move(lossy.workload);
  out.correct = std::move(lossy.correct);
  out.correct_inputs = std::move(lossy.correct_inputs);
  out.quiescent = lossy.quiescent;
  return out;
}

RunOutput run_cc_once(const RunConfig& rc) {
  const Workload w = make_workload(
      rc.cc.n, rc.cc.f, rc.cc.d, rc.pattern, rc.seed,
      rc.cc.fault_model == FaultModel::kCrashIncorrectInputs);
  return run_cc_custom(rc.cc, w, rc.crash_style, rc.delay, rc.seed);
}

}  // namespace chc::core
