// Deterministic replay of Byzantine (protocol = "bcc") traces.
//
// The BCC trace header is the crash-CC header plus protocol = "bcc" and
// the behavior assignments, and run_bcc_custom is the single execution
// path every BCC entry point funnels into — so, exactly as for crash
// traces (core/replay.hpp), re-running the header's configuration against
// a fresh tracer must reproduce the original trace bit for bit. Byzantine
// behaviors are deterministic functions of (receiver, message index,
// spec), which is what makes this hold.
#pragma once

#include <string>
#include <vector>

#include "bcc/harness.hpp"
#include "core/replay.hpp"

namespace chc::bcc {

/// Rebuilds the Byzantine run configuration + workload a header describes.
/// Returns false (with *error) when the header is not a replayable BCC
/// trace (wrong protocol, malformed behavior list, behavior/faulty
/// mismatch, or any defect core::config_from_header reports).
bool byz_config_from_header(const obs::TraceHeader& h, ByzRunConfig* bc,
                            core::Workload* w, std::string* error);

/// core::replay_lines / core::replay_file with the BCC re-execution
/// (run_bcc_custom on the configuration byz_config_from_header rebuilds).
core::ReplayResult replay_trace_lines(const std::vector<std::string>& lines);
core::ReplayResult replay_trace_file(const std::string& path);

}  // namespace chc::bcc
