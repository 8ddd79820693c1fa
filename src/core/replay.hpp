// Deterministic replay: re-execute a run from its trace header.
//
// A trace header carries everything the simulator path consumes — the
// effective CCConfig, scheduling knobs, network policy, shim tuning, seed,
// and the concrete workload (inputs + faulty set) — and every harness entry
// point funnels into the single run_cc_lossy_custom execution path. So
// re-running the header's configuration against a fresh tracer must
// reproduce the original trace *bit for bit* (the serializer emits
// shortest-round-trip doubles via std::to_chars, so equal executions give
// equal bytes). replay_trace_lines does exactly that and reports the first
// differing line when the re-execution diverges — a tripwire for any
// nondeterminism regression in the simulator, RNG forking or geometry
// kernels. replay_lines / replay_file hold that comparison for any
// protocol; the Byzantine replayer (bcc/replay.hpp) plugs in its own
// re-execution.
//
// Only env == "sim" traces are replayable (live cluster traces are
// wall-clock scheduled).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/lossy.hpp"
#include "obs/trace.hpp"

namespace chc::core {

/// Rebuilds the run configuration + workload a header describes. Returns
/// false (with *error) when the header is not replayable (wrong env,
/// out-of-range enums, malformed workload).
bool config_from_header(const obs::TraceHeader& h, LossyRunConfig* lc,
                        Workload* w, std::string* error);

struct ReplayResult {
  bool ran = false;        ///< header parsed and the run was re-executed
  std::string error;       ///< set when !ran
  bool identical = false;  ///< replayed trace == original, byte for byte
  /// When not identical: 1-based index of the first differing line and the
  /// two versions of it (empty string = side has no such line).
  std::size_t first_diff_line = 0;
  std::string expected;  ///< original trace's line
  std::string actual;    ///< replayed trace's line
  std::size_t original_lines = 0;
  std::size_t replayed_lines = 0;
};

/// A protocol's re-execution: runs the configuration `header` describes
/// against `tracer`, or returns false (with *error) when the header is not
/// replayable by that protocol.
using Rerun = std::function<bool(const obs::TraceHeader& header,
                                 obs::Tracer& tracer, std::string* error)>;

/// Re-executes the run described by lines[0] through `rerun` and compares
/// the produced trace line-for-line against `lines`.
ReplayResult replay_lines(const std::vector<std::string>& lines,
                          const Rerun& rerun);

/// Reads a JSONL trace file (blank lines ignored) and replays it through
/// `rerun`.
ReplayResult replay_file(const std::string& path, const Rerun& rerun);

/// replay_lines / replay_file for crash-CC traces (protocol "cc"),
/// re-executed through run_cc_lossy_custom.
ReplayResult replay_trace_lines(const std::vector<std::string>& lines);
ReplayResult replay_trace_file(const std::string& path);

}  // namespace chc::core
