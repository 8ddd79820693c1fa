#include "bcc/replay.hpp"

#include <algorithm>
#include <set>
#include <utility>

namespace chc::bcc {

namespace {

bool fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

bool rerun_bcc(const obs::TraceHeader& header, obs::Tracer& tracer,
               std::string* error) {
  ByzRunConfig bc;
  core::Workload workload;
  if (!byz_config_from_header(header, &bc, &workload, error)) return false;
  bc.lossy.tracer = &tracer;
  (void)run_bcc_custom(bc, workload);
  return true;
}

}  // namespace

bool byz_config_from_header(const obs::TraceHeader& h, ByzRunConfig* bc,
                            core::Workload* w, std::string* error) {
  if (h.protocol != "bcc") {
    return fail(error, "not a bcc trace (protocol=" + h.protocol + ")");
  }
  // ByzCCProcess runs only the paper's round 0 under incorrect inputs.
  if (h.round0_naive) return fail(error, "round0_naive is not a bcc option");
  if (h.correct_inputs_model) {
    return fail(error, "correct_inputs_model is not a bcc option");
  }
  ByzRunConfig out;
  core::Workload workload;
  if (!core::config_from_header(h, &out.lossy, &workload, error)) return false;
  for (const obs::HeaderByz& b : h.byz) {
    if (b.p >= h.n) return fail(error, "byzantine id out of range");
    BehaviorSpec spec;
    if (!behavior_from_int(b.kind, spec.kind)) {
      return fail(error, "unknown behavior kind");
    }
    spec.param = b.param;
    if (!out.behaviors.emplace(static_cast<sim::ProcessId>(b.p), spec)
             .second) {
      return fail(error, "duplicate byzantine id");
    }
  }
  const std::set<sim::ProcessId> faulty(workload.faulty.begin(),
                                        workload.faulty.end());
  if (faulty.size() != out.behaviors.size() ||
      !std::all_of(out.behaviors.begin(), out.behaviors.end(),
                   [&](const auto& kv) { return faulty.count(kv.first) != 0; })) {
    return fail(error, "behavior list does not match the faulty set");
  }
  // Not recorded explicitly: below the bound the original run must have
  // opted in, at or above it the flag has no effect.
  out.allow_below_bound = h.n < 3 * h.f + 1;
  if (bc != nullptr) *bc = std::move(out);
  if (w != nullptr) *w = std::move(workload);
  return true;
}

core::ReplayResult replay_trace_lines(const std::vector<std::string>& lines) {
  return core::replay_lines(lines, rerun_bcc);
}

core::ReplayResult replay_trace_file(const std::string& path) {
  return core::replay_file(path, rerun_bcc);
}

}  // namespace chc::bcc
