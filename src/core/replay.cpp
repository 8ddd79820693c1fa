#include "core/replay.hpp"

#include <algorithm>
#include <set>

namespace chc::core {

namespace {

bool fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

/// Names the first out-of-range field of one header link class, or returns
/// nullptr when it is valid (the CHC_CHECKs in ChannelPolicy's constructor
/// and net::FaultyLinkModel throw; a malformed trace file should fail
/// gracefully).
const char* bad_link_field(double drop, double dup, double reorder,
                           double rmin, double rmax) {
  const auto rate = [](double r) { return r >= 0.0 && r <= 1.0; };
  if (!rate(drop)) return "drop";
  if (!rate(dup)) return "dup";
  if (!rate(reorder)) return "reorder";
  if (!(rmin > 0.0)) return "reorder_delay_min";
  if (!(rmin <= rmax)) return "reorder_delay_max";
  return nullptr;
}

/// Names the first shim parameter net::ReliableChannel's constructor would
/// refuse, or returns nullptr.
const char* bad_shim_field(const obs::TraceHeader& h) {
  if (!(h.rto > 0.0)) return "rto";
  if (!(h.backoff >= 1.0)) return "backoff";
  if (!(h.rto_max >= h.rto)) return "rto_max";
  if (!(h.jitter >= 0.0 && h.jitter < 1.0)) return "jitter";
  return nullptr;
}

bool apply_overrides(const std::vector<obs::HeaderChannelOverride>& overrides,
                     std::uint64_t n, net::NetworkPolicy* policy,
                     std::string* error) {
  for (const obs::HeaderChannelOverride& o : overrides) {
    if (o.from >= n || o.to >= n) {
      return fail(error, "override channel id out of range");
    }
    if (const char* bad =
            bad_link_field(o.drop, o.dup, o.reorder, o.rmin, o.rmax)) {
      return fail(error, std::string("override ") + bad + " out of range");
    }
    policy->set_channel(o.from, o.to,
                        net::ChannelPolicy(o.drop, o.dup, o.reorder, o.rmin,
                                           o.rmax));
  }
  return true;
}

}  // namespace

bool config_from_header(const obs::TraceHeader& h, LossyRunConfig* lc,
                        Workload* w, std::string* error) {
  if (h.env != "sim") {
    return fail(error, "only env=sim traces are replayable, got " + h.env);
  }
  if (h.n == 0 || h.inputs.size() != h.n) {
    return fail(error, "inputs do not match n");
  }
  if (h.pattern < 0 || h.pattern > static_cast<int>(InputPattern::kIdentical)) {
    return fail(error, "input pattern out of range");
  }
  if (h.crash_style < 0 ||
      h.crash_style > static_cast<int>(CrashStyle::kLate)) {
    return fail(error, "crash style out of range");
  }
  if (h.delay < 0 ||
      h.delay > static_cast<int>(DelayRegime::kLaggedOneCorrect)) {
    return fail(error, "delay regime out of range");
  }
  if (h.faulty.size() > h.f) {
    return fail(error, "faulty set larger than f");
  }
  for (const std::uint64_t p : h.faulty) {
    if (p >= h.n) return fail(error, "faulty id out of range");
  }
  for (const auto& row : h.inputs) {
    if (row.size() != h.d) return fail(error, "input row dimension mismatch");
  }
  // The uniform link class, as net::FaultyLinkModel checks it: only a
  // scheduled policy may drop everything (a partition phase).
  if (const char* bad = bad_link_field(h.drop, h.dup, h.reorder,
                                       h.reorder_delay_min,
                                       h.reorder_delay_max)) {
    return fail(error, std::string(bad) + " out of range");
  }
  if (h.phases.empty() && h.drop >= 1.0) {
    return fail(error, "drop = 1 is not fair-lossy without policy phases");
  }
  if (h.reliable) {
    if (const char* bad = bad_shim_field(h)) {
      return fail(error, std::string(bad) + " out of range for the shim");
    }
  }

  LossyRunConfig out;
  CCConfig& cc = out.base.cc;
  cc.n = h.n;
  cc.f = h.f;
  cc.d = h.d;
  cc.eps = h.eps;
  cc.input_magnitude = h.input_magnitude;  // effective value; idempotent
  cc.rel_tol = h.rel_tol;
  cc.round0 = h.round0_naive ? Round0Policy::kNaiveCollect
                             : Round0Policy::kStableVector;
  cc.fault_model = h.correct_inputs_model ? FaultModel::kCrashCorrectInputs
                                          : FaultModel::kCrashIncorrectInputs;
  out.base.pattern = static_cast<InputPattern>(h.pattern);
  out.base.crash_style = static_cast<CrashStyle>(h.crash_style);
  out.base.delay = static_cast<DelayRegime>(h.delay);
  out.base.seed = h.seed;
  out.policy = net::NetworkPolicy::lossy(h.drop, h.dup, h.reorder);
  out.policy.link.reorder_delay_min = h.reorder_delay_min;
  out.policy.link.reorder_delay_max = h.reorder_delay_max;
  if (!apply_overrides(h.overrides, h.n, &out.policy, error)) return false;
  for (std::size_t k = 0; k < h.phases.size(); ++k) {
    const obs::HeaderPolicyPhase& hp = h.phases[k];
    if (k == 0 ? hp.at != 0.0 : hp.at <= h.phases[k - 1].at) {
      return fail(error, "policy phase times must start at 0 and ascend");
    }
    if (const char* bad =
            bad_link_field(hp.drop, hp.dup, hp.reorder, hp.rmin, hp.rmax)) {
      return fail(error, std::string("phase ") + bad + " out of range");
    }
    net::NetworkPolicy phase;
    phase.link =
        net::ChannelPolicy(hp.drop, hp.dup, hp.reorder, hp.rmin, hp.rmax);
    if (!apply_overrides(hp.overrides, h.n, &phase, error)) return false;
    out.schedule.add(hp.at, std::move(phase));
  }
  if (!h.crash_plans.empty()) {
    sim::CrashSchedule crashes;
    for (const obs::HeaderCrashPlan& cp : h.crash_plans) {
      if (cp.p >= h.n) return fail(error, "crash plan id out of range");
      sim::CrashPlan plan;
      if (cp.has_at) plan.at_time = cp.at;
      if (cp.has_after) plan.after_sends = cp.after;
      if (cp.has_recover) {
        if (!cp.has_at || cp.recover <= cp.at) {
          return fail(error, "recovery must follow a time-triggered crash");
        }
        plan.recover_at = cp.recover;
      }
      crashes.set(cp.p, plan);
    }
    out.crash_plans = std::move(crashes);
  }
  for (const obs::HeaderStorm& s : h.storms) {
    if (!(s.t1 > s.t0) || s.factor < 1.0) {
      return fail(error, "malformed storm window");
    }
    out.storms.push_back({s.t0, s.t1, s.factor});
  }
  out.reliable = h.reliable;
  out.rel.rto = h.rto;
  out.rel.backoff = h.backoff;
  out.rel.rto_max = h.rto_max;
  out.rel.jitter = h.jitter;
  out.rel.max_retries = h.max_retries;
  out.max_events = h.max_events;

  Workload workload;
  workload.inputs.reserve(h.inputs.size());
  for (const auto& row : h.inputs) workload.inputs.emplace_back(row);
  workload.faulty.assign(h.faulty.begin(), h.faulty.end());
  // Reconstructed the way make_workload computes it (floor 0.1 over the
  // fault-free inputs); only its max with the header's effective
  // input_magnitude matters, and that max is the header value again.
  const std::set<sim::ProcessId> faulty(workload.faulty.begin(),
                                        workload.faulty.end());
  workload.correct_magnitude = 1e-9;
  for (sim::ProcessId p = 0; p < workload.inputs.size(); ++p) {
    if (faulty.count(p) == 0) {
      workload.correct_magnitude =
          std::max(workload.correct_magnitude, workload.inputs[p].max_abs());
    }
  }
  workload.correct_magnitude = std::max(workload.correct_magnitude, 0.1);

  if (lc != nullptr) *lc = std::move(out);
  if (w != nullptr) *w = std::move(workload);
  return true;
}

ReplayResult replay_lines(const std::vector<std::string>& lines,
                          const Rerun& rerun) {
  ReplayResult r;
  if (lines.empty()) {
    r.error = "empty trace";
    return r;
  }
  obs::TraceHeader header;
  std::string error;
  if (!obs::parse_header(lines[0], header, &error)) {
    r.error = "header: " + error;
    return r;
  }
  obs::MemorySink sink;
  obs::Tracer tracer(&sink);
  if (!rerun(header, tracer, &error)) {
    r.error = error;
    return r;
  }
  r.ran = true;

  const std::vector<std::string> replayed = sink.lines();
  r.original_lines = lines.size();
  r.replayed_lines = replayed.size();
  const std::size_t common = std::min(lines.size(), replayed.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (lines[i] != replayed[i]) {
      r.first_diff_line = i + 1;
      r.expected = lines[i];
      r.actual = replayed[i];
      return r;
    }
  }
  if (lines.size() != replayed.size()) {
    r.first_diff_line = common + 1;
    if (lines.size() > common) r.expected = lines[common];
    if (replayed.size() > common) r.actual = replayed[common];
    return r;
  }
  r.identical = true;
  return r;
}

ReplayResult replay_file(const std::string& path, const Rerun& rerun) {
  std::vector<std::string> lines;
  if (!obs::read_jsonl(path, lines)) {
    ReplayResult r;
    r.error = "cannot open " + path;
    return r;
  }
  return replay_lines(lines, rerun);
}

namespace {

bool rerun_cc(const obs::TraceHeader& header, obs::Tracer& tracer,
              std::string* error) {
  if (header.protocol != "cc") {
    // Other protocols replay through their own module (bcc::replay_trace_
    // lines for "bcc"); running them through the crash harness would
    // silently produce a diverging trace instead of a diagnosis.
    return fail(error, "protocol " + header.protocol +
                           " traces are not replayable by the crash-CC "
                           "harness");
  }
  // The stable vector's quorum bound (CCProcess checks it). BCC replays
  // below its own bound by design, so this is not in config_from_header.
  if (header.n < 2 * header.f + 1) {
    return fail(error, "f = " + std::to_string(header.f) +
                           " needs n >= 2f + 1, n = " +
                           std::to_string(header.n));
  }
  LossyRunConfig lc;
  Workload workload;
  if (!config_from_header(header, &lc, &workload, error)) return false;
  lc.tracer = &tracer;
  (void)run_cc_lossy_custom(lc, workload);
  return true;
}

}  // namespace

ReplayResult replay_trace_lines(const std::vector<std::string>& lines) {
  return replay_lines(lines, rerun_cc);
}

ReplayResult replay_trace_file(const std::string& path) {
  return replay_file(path, rerun_cc);
}

}  // namespace chc::core
