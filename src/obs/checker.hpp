// The verification oracle: one judge of an execution record, with two
// front-ends that fill the record.
//
//   * Typed trace events (check_trace_events; check_trace_lines and
//     check_trace_file parse JSONL and feed the same front-end;
//     check_sink reads a MemorySink's events directly). Every snapshot is
//     recorded, and the front-end itself checks the trace's structure.
//   * core::TraceCollector (core::certify): every incarnation's round-0
//     view and decision, no per-round snapshots.
//
// Structural checks (event front-end; the trace is a plausible execution):
//   * the first record is a header with f < n, d-dimensional input rows and
//     finite positive eps / input_magnitude, and every vertex and view
//     point is d-dimensional (otherwise the trace is malformed: parsed =
//     false); seq numbers strictly increase and event times are
//     non-decreasing (env == "sim" traces only — env == "live" traces
//     record wall-clock interleavings);
//   * per process: at most one round-0 completion, round completions are
//     consecutive from 1, each preceded by its round_start, at most one
//     decision, and nothing is emitted after the process's crash event;
//   * round completions carry >= n - f senders, all valid process ids;
//   * a quiescent footer implies every fault-free process decided.
//
// Crash-recover awareness: a kRecover event opens a fresh *incarnation* of
// the process (state loss — the restarted process re-records round 0).
// Safety checks (validity, round containment, stable-vector containment)
// cover every incarnation; contraction / ε-agreement apply to first
// incarnations only, because a recovered process is faulty and the paper's
// bounds are stated for processes that never crash. Liveness exempts
// processes that ever crashed, and is skipped altogether when the trace is
// over budget (more than f distinct processes crashed).
//
// Geometric invariants (paper §5-§6):
//   * Validity — every recorded h_i[t] ⊆ H(validity inputs) (Theorem 2);
//   * Round containment — h_i[t] ⊆ H(∪_{j ∈ senders} h_j[t-1]): the state
//     is an equal-weight L over the senders' previous states, and
//     L(Y) ⊆ H(∪Y) (Definition 2). NOTE the stricter h_i[t] ⊆ h_i[t-1] is
//     *not* an invariant: when correct processes' round-0 views genuinely
//     differ (e.g. the kLaggedOneCorrect regime) a process's state can mix
//     outward — measured excess up to ~0.16 — so the checker verifies the
//     faithful union form;
//   * Stable-vector Containment — round-0 views are totally ordered by
//     inclusion (paper §3);
//   * ε-agreement + Lemma 3 contraction — pairwise d_H(h_i[t], h_j[t]) ≤
//     (1 − 1/n)^t · sqrt(d · n² · max(U², μ²)) per round (eq. 12→19), and
//     pairwise decision distance < ε;
//   * Optimality floor — I_Z ⊆ h_i[t] for every fault-free process and
//     round (Lemma 6), with I_Z recomputed from the recorded views
//     (eq. 20-21; not asserted for the naive round-0 ablation, where the
//     guarantee does not hold).
//
// The judge defines each measured quantity once:
//   * Z intersects every recorded round-0 view of every incarnation;
//   * a resolution-limited state (see checker.cpp) gets the collapse slack,
//     tried only after a strict containment fails;
//   * ε-agreement covers the first incarnation of every process that
//     decided.
// Besides asserting, it measures a decision-level verdict (validity,
// agreement, optimality, max pairwise distance) and I_Z's measure in every
// configuration; core::certify's Certificate is a view of exactly these.
//
// Byzantine mode (header protocol == "bcc", src/bcc): the same validity,
// round-containment, contraction and ε-agreement invariants apply to the
// fault-free processes, with three model-driven deltas. (1) Round-0 views
// are *not* inclusion-ordered (each process fixes its own first-(n-f)
// verified multiset), but reliable broadcast forces agreement per origin —
// the sv-containment check is replaced by pairwise agreement on common
// origins. (2) Declared-Byzantine senders record no states, so containments
// through them are counted as skipped, not violated; Byzantine processes
// are exempt from liveness via the faulty set. (3) The I_Z optimality floor
// is a crash-model lemma and is neither computed nor asserted, and liveness
// is skipped when n < 3f + 1 (the resilience precondition is void — the
// documented non-decision mode of the boundary suite; safety is still fully
// checked).
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "geometry/polytope.hpp"
#include "obs/trace.hpp"

namespace chc::obs {

/// A recorded round-0 view R_i: origin -> input.
using View = std::map<Pid, geo::Vec>;

/// A recorded polytope state with its provenance in the trace (1-based
/// line and seq; both 0 for a record filled in memory).
struct Snapshot {
  geo::Polytope poly;
  std::size_t line = 0;
  std::uint64_t seq = 0;
  std::vector<Pid> senders;  ///< MSG_i[t]; empty for round 0
};

/// What one incarnation of a process recorded. A crash-recover opens a
/// fresh incarnation (state loss: the restarted process re-records
/// round 0).
struct Incarnation {
  bool has_round0 = false;
  bool round0_empty = false;
  std::size_t round0_line = 0;
  View view;                          ///< R_i
  std::map<std::size_t, Snapshot> h;  ///< round -> h_i[t] (0 == h_i[0])
  std::set<std::size_t> started;      ///< rounds with a round_start
  bool decided = false;
  std::size_t decide_round = 0;
  std::size_t decide_line = 0;
  geo::Polytope decision;
  bool crashed = false;
  double crash_t = 0.0;
};

/// One execution as the judge reads it.
struct ExecutionRecord {
  TraceHeader header;  ///< configuration, protocol, declared faulty set
  /// The inputs whose hull bounds every valid state (Theorem 2).
  std::vector<geo::Vec> validity_inputs;
  /// procs[p]: the incarnations of process p, oldest first.
  std::vector<std::vector<Incarnation>> procs;
  std::optional<TraceFooter> footer;
  std::size_t footer_line = 0;
};

struct CheckViolation {
  std::size_t line = 0;  ///< 1-based line number in the trace file
  std::uint64_t seq = 0;
  Pid p = kNoPeer;
  std::size_t round = 0;
  std::string invariant;  ///< e.g. "containment", "eps-agreement"
  std::string detail;
};

/// One-line human-readable description of a violation.
std::string describe(const CheckViolation& v);

struct CheckOptions {
  double tol = 1e-6;  ///< geometric slack (core::certify's check_tol)
  std::size_t max_violations = 16;  ///< stop collecting after this many
};

/// The judge's decision-level verdict, measured in every configuration
/// whether or not the matching invariant is asserted. All false until a
/// process outside the declared faulty set has decided.
struct DecisionVerdict {
  bool validity = false;    ///< every recorded decision ⊆ H(validity inputs)
  bool agreement = false;   ///< first-incarnation decisions pairwise d_H < ε
  bool optimality = false;  ///< I_Z non-empty and ⊆ every fault-free
                            ///< (never crashed) first-incarnation decision
  double max_pairwise_hausdorff = 0.0;  ///< over those first incarnations
};

struct CheckReport {
  bool parsed = false;  ///< header + every line parsed
  std::string parse_error;
  TraceHeader header;
  std::vector<CheckViolation> violations;

  // Work accounting (so "accepted" visibly means "checked").
  std::size_t events = 0;
  std::size_t snapshots_checked = 0;
  std::size_t containments_checked = 0;
  std::size_t pairs_checked = 0;
  std::size_t rounds_seen = 0;
  bool iz_checked = false;  ///< the I_Z floor was asserted
  /// Measure of I_Z whenever it is non-empty, asserted or not (0 for bcc
  /// and single-node traces, where it is not defined).
  double iz_measure = 0.0;
  double validity_hull_measure = 0.0;  ///< measure of H(validity inputs)
  DecisionVerdict decisions;

  /// Round containments skipped because the senders' previous states are
  /// legitimately unknowable: a single-node perspective trace cannot see
  /// its peers' states, and a declared-Byzantine sender in a protocol=bcc
  /// trace records no protocol events at all.
  std::size_t containments_skipped = 0;
  /// The final line was malformed and dropped: a node crashed (SIGKILL)
  /// mid-write. Only tolerated for live traces — a truncated tail is the
  /// expected artifact of a real crash, and every fully written event was
  /// still checked. Any other env treats a malformed line as corruption.
  bool truncated_tail = false;

  // Nemesis-run accounting.
  std::size_t recoveries = 0;  ///< kRecover events (fresh incarnations)
  /// More than f processes crashed (faulty set union crash events): the
  /// resilience precondition is void, so liveness is not required — the
  /// checker still verifies every recorded snapshot is safe.
  bool over_budget = false;

  bool ok() const { return parsed && violations.empty(); }
};

/// One-line work-accounting summary ("events=... snapshots=... ..."), shared
/// by chc_check and the harness reporters so every verdict line visibly says
/// what was checked — including the count of skipped cross-node containments
/// (single-perspective traces, declared-Byzantine senders) and a truncated
/// live-trace tail.
std::string summary_line(const CheckReport& r);

/// The judge alone, over a record a front-end filled: every invariant
/// above except the event front-end's structure checks, plus the
/// decision-level verdict.
CheckReport judge(const ExecutionRecord& record, const CheckOptions& opts = {});

/// Typed front-end: the header, the events in emission order and the
/// footer when the run wrote one. Event i is reported as line i + 2, its
/// line in the JSONL form.
CheckReport check_trace_events(const TraceHeader& header,
                               const std::vector<TraceEvent>& events,
                               const std::optional<TraceFooter>& footer,
                               const CheckOptions& opts = {});

/// The typed front-end over a MemorySink that recorded one run (header
/// line, events, optional footer line): only those two pre-serialized
/// records are parsed.
CheckReport check_sink(const MemorySink& sink, const CheckOptions& opts = {});

/// Parses JSONL, then runs the typed front-end.
CheckReport check_trace_lines(const std::vector<std::string>& lines,
                              const CheckOptions& opts = {});
CheckReport check_trace_file(const std::string& path,
                             const CheckOptions& opts = {});

}  // namespace chc::obs
