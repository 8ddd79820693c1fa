// Lossy-network experiment harness: Algorithm CC over fair-lossy links.
//
// Mirrors run_cc_once/run_cc_custom (harness.hpp) but installs a
// net::FaultyLinkModel built from a NetworkPolicy and, by default, wraps
// every CCProcess in a net::ReliableChannel shim. This is the entry point
// of the randomized adversary fuzzer (tests/net/adversary_fuzz_test.cpp)
// and the lossy sweep bench (bench/bench_lossy.cpp): the same core/analysis
// certificate is computed, so validity / ε-agreement / optimality are
// checked on every lossy execution exactly as on reliable ones.
//
// With `reliable = false` the processes face the raw lossy network — the
// configuration that demonstrates the injector bites (CC generally fails
// to decide once round-0 quorum traffic is dropped).
//
// simulate() is the protocol-independent half: the Byzantine harness
// (bcc/harness.hpp) runs through it with its own process builder.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/harness.hpp"
#include "net/policy.hpp"
#include "net/reliable_channel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/delay.hpp"

namespace chc::core {

struct LossyRunConfig {
  RunConfig base;             ///< cc / pattern / crash style / delay / seed
  net::NetworkPolicy policy;  ///< injected link faults
  net::ReliableParams rel;    ///< shim tuning (used when reliable)
  bool reliable = true;       ///< wrap processes in net::ReliableChannel
  std::uint64_t max_events = 50'000'000;

  // Time-varying adversary (nemesis scenarios). All three default to
  // "absent", leaving classic runs untouched.
  /// Non-empty: replaces `policy` with a time-keyed phase sequence
  /// (partition -> heal). Partitioned phases may drop at rate 1.0.
  net::PolicySchedule schedule;
  /// Delay-storm windows layered on the base delay model.
  std::vector<sim::StormWindow> storms;
  /// Explicit crash schedule (the only way to schedule crash-*recover*);
  /// overrides the crash-style-derived schedule when present.
  std::optional<sim::CrashSchedule> crash_plans;

  /// Optional observability hooks. With a tracer the run writes a full
  /// JSONL trace (header, events, footer) — the header also records
  /// per-channel overrides, policy phases, explicit crash plans and storm
  /// windows, so nemesis runs replay like any other.
  obs::Tracer* tracer = nullptr;
  obs::Registry* metrics = nullptr;
};

struct LossyRunOutput {
  std::unique_ptr<TraceCollector> trace;
  Certificate cert;
  sim::SimStats stats;   ///< includes injector counters and, when reliable,
                         ///< merged shim retransmit counters
  net::ShimStats shims;  ///< aggregate over all processes' shims
  Workload workload;
  std::vector<sim::ProcessId> correct;
  std::vector<geo::Vec> correct_inputs;  ///< inputs of the processes in `correct`
  bool quiescent = false;
};

/// Builds the protocol process for id p — what the optional reliable shim
/// wraps — recording into `trace`. Called once per process before the run
/// and again for every crash-recover restart.
using ProcessBuilder = std::function<std::unique_ptr<sim::Process>(
    sim::ProcessId p, TraceCollector& trace)>;

/// Reads protocol counters into the registry after the run, while the
/// built processes are still alive.
using ProtocolMetrics =
    std::function<void(obs::Registry& metrics, const LossyRunOutput& out)>;

/// One simulated execution of any protocol over lc's network: delay model
/// (with storms), sim::Simulation, link faults (policy or schedule), a
/// net::ReliableChannel around each built process when lc.reliable, the
/// restart factory for crash-recover plans, the run, shim-stat folding,
/// network metrics, the trace footer and the fault-free set. The caller
/// writes the trace header before and certifies after; `protocol_metrics`
/// runs only when lc.metrics is set.
LossyRunOutput simulate(const LossyRunConfig& lc, const Workload& workload,
                        const sim::CrashSchedule& crashes,
                        const ProcessBuilder& build,
                        const ProtocolMetrics& protocol_metrics);

/// One complete lossy execution of Algorithm CC, certified.
LossyRunOutput run_cc_lossy(const LossyRunConfig& lc);

/// Same, with a caller-supplied workload instead of a generated one. This
/// is the single execution path every harness entry point funnels into
/// (run_cc_custom == disabled policy + no shim), so a trace header written
/// here is sufficient to re-execute the run (core/replay.hpp).
LossyRunOutput run_cc_lossy_custom(const LossyRunConfig& lc,
                                   const Workload& workload);

/// The trace header describing this configuration + workload (effective
/// CCConfig values, i.e. after the input-magnitude adjustment).
obs::TraceHeader make_trace_header(const LossyRunConfig& lc,
                                   const CCConfig& effective,
                                   const Workload& workload);

}  // namespace chc::core
