// Byzantine convex consensus harness: one complete BCC execution over the
// simulator, certified and (optionally) traced.
//
// Runs through core::simulate, the simulator assembly the crash harness
// uses: the same LossyRunConfig carries network policy / delay regime /
// tracer, and a behavior map designates which processes are Byzantine and
// how they misbehave. Each Byzantine process is an honest ByzCCProcess
// wrapped in sim::AdversarialProcess (it records no trace of its own — its
// claimed states exist only inside correct receivers). The emitted trace
// header sets protocol = "bcc" and lists the behavior assignments, so the
// run is replayable by bcc/replay.hpp and checkable by obs::TraceChecker's
// Byzantine mode.
//
// The returned Certificate comes from the verification oracle that judges
// every crash run (core::certify over the protocol = "bcc" header):
// all_decided / validity / ε-agreement exactly as in the crash harness.
// The I_Z optimality floor is crash-specific and is left unset
// (optimality = false, iz_measure = 0).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "bcc/behavior.hpp"
#include "core/lossy.hpp"
#include "core/workload.hpp"

namespace chc::bcc {

struct ByzRunConfig {
  /// Base run configuration (n/f/d/eps, pattern, delay, seed, network
  /// policy, tracer/metrics). crash_style is ignored: Byzantine processes
  /// do not crash, they misbehave. Explicit crash_plans are still honored
  /// (crash-*stop* only) for mixed-fault experiments.
  core::LossyRunConfig lossy;
  /// The adversary's choice: which processes are Byzantine, doing what.
  /// Keys must equal the workload's faulty set; size must be <= f.
  std::map<sim::ProcessId, BehaviorSpec> behaviors;
  /// Run below n = 3f + 1 (resilience-boundary experiments only).
  bool allow_below_bound = false;
};

/// The CC header for this configuration plus protocol = "bcc" and the
/// behavior list — everything bcc::replay needs to re-execute the run.
obs::TraceHeader make_byz_trace_header(const ByzRunConfig& bc,
                                       const core::CCConfig& effective,
                                       const core::Workload& workload);

/// One complete BCC execution with a caller-supplied workload. The
/// workload's faulty set must match bc.behaviors' keys.
core::LossyRunOutput run_bcc_custom(const ByzRunConfig& bc,
                                    const core::Workload& workload);

/// Same, generating the workload with core::make_workload's explicit-set
/// form from bc.lossy.base (pattern/seed) with bc.behaviors' keys as the
/// faulty set.
core::LossyRunOutput run_bcc(const ByzRunConfig& bc);

}  // namespace chc::bcc
