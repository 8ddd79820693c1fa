#include "obs/checker.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "geometry/ops.hpp"
#include "geometry/polytope.hpp"

namespace chc::obs {

std::string describe(const CheckViolation& v) {
  std::ostringstream os;
  os << "line " << v.line << " seq " << v.seq << ": [" << v.invariant << "]";
  if (v.p != kNoPeer) os << " process " << v.p;
  if (v.round != static_cast<std::size_t>(-1)) os << " round " << v.round;
  os << ": " << v.detail;
  return os.str();
}

geo::Polytope compute_iz(const std::vector<const View*>& views,
                         std::size_t drop, double rel_tol) {
  if (views.empty()) return {};
  // Views are inclusion-ordered under the stable vector, so Z is the
  // smallest view; intersect by origin to stay robust when they are not.
  View z = *views.front();
  for (const View* view : views) {
    for (auto it = z.begin(); it != z.end();) {
      const auto other = view->find(it->first);
      if (other == view->end() || !(other->second == it->second)) {
        it = z.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (z.size() <= drop) return {};
  std::vector<geo::Vec> xz;
  xz.reserve(z.size());
  for (const auto& [origin, x] : z) xz.push_back(x);
  return geo::intersection_of_subset_hulls(xz, drop, rel_tol);
}

namespace {

/// A recorded polytope snapshot plus its provenance in the file.
struct Snapshot {
  geo::Polytope poly;
  std::size_t line = 0;
  std::uint64_t seq = 0;
  std::vector<Pid> senders;  // empty for round 0
};

struct PState {
  bool has_round0 = false;
  bool round0_empty = false;
  std::size_t round0_line = 0;
  View view;
  std::map<std::size_t, Snapshot> h;  ///< round -> state (0 == h_i[0])
  std::set<std::size_t> started;      ///< rounds with a round_start
  bool decided = false;
  std::size_t decide_round = 0;
  std::size_t decide_line = 0;
  geo::Polytope decision;
  bool crashed = false;
  double crash_t = 0.0;
};

class Checker {
 public:
  Checker(const std::vector<std::string>& lines, const CheckOptions& opts)
      : lines_(lines), opts_(opts) {}

  CheckReport run() {
    if (lines_.empty()) {
      report_.parse_error = "empty trace";
      return report_;
    }
    std::string error;
    if (!parse_header(lines_[0], report_.header, &error)) {
      report_.parse_error = "header: " + error;
      return report_;
    }
    const TraceHeader& h = report_.header;
    if (h.d == 0 || h.inputs.size() != h.n) {
      report_.parse_error = "header: inputs do not match n";
      return report_;
    }
    procs_.assign(h.n, std::vector<PState>(1));
    if (!scan_events()) return report_;
    report_.parsed = true;
    report_.over_budget = crashed_set_size() > h.f;

    check_liveness();
    check_view_containment();
    check_validity_and_containment();
    check_contraction_and_agreement();
    check_optimality_floor();

    std::stable_sort(report_.violations.begin(), report_.violations.end(),
                     [](const CheckViolation& a, const CheckViolation& b) {
                       return a.line < b.line;
                     });
    return report_;
  }

 private:
  void violate(std::size_t line, std::uint64_t seq, Pid p, std::size_t round,
               std::string invariant, std::string detail) {
    if (report_.violations.size() >= opts_.max_violations) return;
    report_.violations.push_back(
        {line, seq, p, round, std::move(invariant), std::move(detail)});
  }

  bool sim_env() const { return report_.header.env == "sim"; }
  bool live_env() const { return report_.header.env == "live"; }
  /// Byzantine convex consensus trace (src/bcc) — see the header comment
  /// for the model-driven deltas.
  bool bcc_protocol() const { return report_.header.protocol == "bcc"; }
  /// Single-node live trace: only this process's protocol events are
  /// recorded, so cross-process lookups must not be treated as violations.
  bool perspective_trace() const { return report_.header.perspective >= 0; }

  /// Current (latest) incarnation of process p.
  PState& cur(Pid p) { return procs_[p].back(); }

  bool ever_crashed(Pid p) const {
    for (const PState& ps : procs_[p]) {
      if (ps.crashed) return true;
    }
    return false;
  }

  /// |faulty ∪ {p : p crashed}| — the adversary's actual budget use.
  std::size_t crashed_set_size() const {
    std::set<Pid> s(report_.header.faulty.begin(),
                    report_.header.faulty.end());
    for (Pid p = 0; p < procs_.size(); ++p) {
      if (ever_crashed(p)) s.insert(p);
    }
    return s.size();
  }

  bool scan_events() {
    const TraceHeader& h = report_.header;
    std::uint64_t prev_seq = 0;
    bool have_seq = false;
    double prev_t = 0.0;
    std::string error;

    for (std::size_t i = 1; i < lines_.size(); ++i) {
      const std::size_t line_no = i + 1;
      const std::string& line = lines_[i];
      if (line.find("\"kind\":\"footer\"") != std::string::npos) {
        TraceFooter f;
        if (!parse_footer(line, f, &error)) {
          report_.parse_error =
              "line " + std::to_string(line_no) + ": " + error;
          return false;
        }
        if (i + 1 != lines_.size()) {
          violate(line_no, 0, kNoPeer, static_cast<std::size_t>(-1),
                  "structure", "footer is not the last record");
        }
        footer_ = f;
        footer_line_ = line_no;
        continue;
      }
      TraceEvent e;
      if (!parse_event(line, e, &error)) {
        // A node killed mid-write (SIGKILL) legitimately leaves a torn final
        // line in a live trace; everything before it is still checkable.
        if (live_env() && i + 1 == lines_.size()) {
          report_.truncated_tail = true;
          break;
        }
        report_.parse_error = "line " + std::to_string(line_no) + ": " + error;
        return false;
      }
      ++report_.events;

      // Global ordering (deterministic simulator traces only).
      if (sim_env()) {
        if (have_seq && e.seq <= prev_seq) {
          violate(line_no, e.seq, e.p, static_cast<std::size_t>(-1),
                  "structure", "seq not strictly increasing");
        }
        if (have_seq && e.t < prev_t) {
          violate(line_no, e.seq, e.p, static_cast<std::size_t>(-1),
                  "structure", "event time decreased");
        }
        prev_seq = e.seq;
        prev_t = e.t;
        have_seq = true;
      }

      if (e.p >= h.n) {
        violate(line_no, e.seq, e.p, static_cast<std::size_t>(-1), "structure",
                "process id out of range");
        continue;
      }
      if (e.peer != kNoPeer && e.peer >= h.n) {
        violate(line_no, e.seq, e.p, static_cast<std::size_t>(-1), "structure",
                "peer id out of range");
      }
      if (perspective_trace() &&
          e.p != static_cast<Pid>(h.perspective)) {
        violate(line_no, e.seq, e.p, static_cast<std::size_t>(-1), "structure",
                "event from a foreign process in a single-node trace");
        continue;
      }
      PState& ps = cur(e.p);

      // Nothing is emitted *by* a process strictly after its crash time
      // (within its incarnation — a kRecover opens a fresh one): a
      // mid-broadcast crash lets the running callback finish (the process
      // may legitimately complete a round at the same instant), but once
      // that callback returns it is silent. Only checkable on deterministic
      // simulator time.
      const bool process_emitted =
          e.kind == EventKind::kSend || e.kind == EventKind::kRetransmit ||
          e.kind == EventKind::kRoundStart || e.kind == EventKind::kRound0 ||
          e.kind == EventKind::kRound0Empty || e.kind == EventKind::kRound ||
          e.kind == EventKind::kDecide || e.kind == EventKind::kGiveUp;
      if (sim_env() && process_emitted && ps.crashed && e.t > ps.crash_t) {
        violate(line_no, e.seq, e.p, static_cast<std::size_t>(-1), "structure",
                "event from a crashed process");
      }

      switch (e.kind) {
        case EventKind::kCrash:
          if (ps.crashed) {
            violate(line_no, e.seq, e.p, static_cast<std::size_t>(-1),
                    "structure", "duplicate crash event");
          }
          ps.crashed = true;
          ps.crash_t = e.t;
          break;
        case EventKind::kRecover:
          if (!ps.crashed) {
            violate(line_no, e.seq, e.p, static_cast<std::size_t>(-1),
                    "structure", "recovery without a preceding crash");
            break;
          }
          // Fresh incarnation with empty state (state loss); subsequent
          // events for p land on it.
          procs_[e.p].emplace_back();
          ++report_.recoveries;
          break;
        case EventKind::kRecv:
          if (sim_env() && ps.crashed) {
            violate(line_no, e.seq, e.p, static_cast<std::size_t>(-1),
                    "structure", "delivery to a crashed process");
          }
          break;
        case EventKind::kRoundStart:
          if (e.round < 1 || ps.started.count(e.round) != 0) {
            violate(line_no, e.seq, e.p, e.round, "structure",
                    "round started twice or round < 1");
          }
          ps.started.insert(e.round);
          break;
        case EventKind::kRound0:
        case EventKind::kRound0Empty:
          on_round0(e, line_no);
          break;
        case EventKind::kRound:
          on_round(e, line_no);
          break;
        case EventKind::kDecide:
          on_decide(e, line_no);
          break;
        case EventKind::kSend:
        case EventKind::kNetDrop:
        case EventKind::kNetDup:
        case EventKind::kDropCrashed:
        case EventKind::kRetransmit:
        case EventKind::kGiveUp:
        case EventKind::kByzSend:
          break;
      }
    }
    return true;
  }

  void on_round0(const TraceEvent& e, std::size_t line_no) {
    PState& ps = cur(e.p);
    if (ps.has_round0) {
      violate(line_no, e.seq, e.p, 0, "structure", "round 0 recorded twice");
      return;
    }
    ps.has_round0 = true;
    ps.round0_line = line_no;
    ps.round0_empty = e.kind == EventKind::kRound0Empty;
    for (const auto& [origin, x] : e.view) ps.view.emplace(origin, x);
    const TraceHeader& h = report_.header;
    if (e.view.size() < h.n - h.f) {
      violate(line_no, e.seq, e.p, 0, "structure",
              "round-0 view smaller than n - f");
    }
    if (!ps.round0_empty) {
      if (e.verts.empty()) {
        violate(line_no, e.seq, e.p, 0, "structure",
                "round-0 snapshot has no vertices");
        return;
      }
      Snapshot s;
      s.poly = geo::Polytope::from_points(e.verts, h.rel_tol);
      s.line = line_no;
      s.seq = e.seq;
      ps.h.emplace(0, std::move(s));
    }
  }

  void on_round(const TraceEvent& e, std::size_t line_no) {
    PState& ps = cur(e.p);
    const TraceHeader& h = report_.header;
    if (e.round < 1) {
      violate(line_no, e.seq, e.p, e.round, "structure", "round index < 1");
      return;
    }
    if (ps.h.count(e.round) != 0) {
      violate(line_no, e.seq, e.p, e.round, "structure",
              "round recorded twice");
      return;
    }
    if (!ps.has_round0 || ps.round0_empty) {
      violate(line_no, e.seq, e.p, e.round, "structure",
              "round completed without a round-0 state");
    }
    if (e.round > 1 && ps.h.count(e.round - 1) == 0) {
      violate(line_no, e.seq, e.p, e.round, "structure",
              "round completed out of order");
    }
    if (ps.started.count(e.round) == 0) {
      violate(line_no, e.seq, e.p, e.round, "structure",
              "round completed without a round_start");
    }
    if (e.senders.size() < h.n - h.f) {
      violate(line_no, e.seq, e.p, e.round, "structure",
              "fewer than n - f senders (line 12 threshold)");
    }
    if (std::find(e.senders.begin(), e.senders.end(), e.p) ==
        e.senders.end()) {
      violate(line_no, e.seq, e.p, e.round, "structure",
              "own message missing from the sender set (line 8)");
    }
    for (const Pid s : e.senders) {
      if (s >= h.n) {
        violate(line_no, e.seq, e.p, e.round, "structure",
                "sender id out of range");
      }
    }
    if (e.verts.empty()) {
      violate(line_no, e.seq, e.p, e.round, "structure",
              "round snapshot has no vertices");
      return;
    }
    Snapshot s;
    s.poly = geo::Polytope::from_points(e.verts, h.rel_tol);
    s.line = line_no;
    s.seq = e.seq;
    s.senders = e.senders;
    ps.h.emplace(e.round, std::move(s));
    report_.rounds_seen = std::max(report_.rounds_seen, e.round);
  }

  void on_decide(const TraceEvent& e, std::size_t line_no) {
    PState& ps = cur(e.p);
    const TraceHeader& h = report_.header;
    if (ps.decided) {
      violate(line_no, e.seq, e.p, e.round, "structure",
              "decision recorded twice");
      return;
    }
    ps.decided = true;
    ps.decide_round = e.round;
    ps.decide_line = line_no;
    if (h.t_end != 0 && e.round != h.t_end) {
      violate(line_no, e.seq, e.p, e.round, "termination",
              "decision at round " + std::to_string(e.round) +
                  ", expected t_end = " + std::to_string(h.t_end));
    }
    if (e.verts.empty()) {
      violate(line_no, e.seq, e.p, e.round, "structure",
              "decision has no vertices");
      return;
    }
    ps.decision = geo::Polytope::from_points(e.verts, h.rel_tol);
    const auto it = ps.h.find(e.round);
    if (it == ps.h.end() ||
        !geo::approx_equal(ps.decision, it->second.poly, 1e-9)) {
      violate(line_no, e.seq, e.p, e.round, "structure",
              "decision differs from the recorded round state");
    }
  }

  bool is_faulty(Pid p) const {
    const auto& f = report_.header.faulty;
    return std::find(f.begin(), f.end(), p) != f.end();
  }

  void check_liveness() {
    if (!footer_) return;
    // The footer counts decisions the harness's collector holds at the end
    // of the run; a recovery resets the collector state for that process,
    // so compare against the *latest* incarnations.
    std::uint64_t decided = 0;
    for (const auto& incs : procs_) decided += incs.back().decided ? 1 : 0;
    if (decided != footer_->decided) {
      violate(footer_line_, 0, kNoPeer, static_cast<std::size_t>(-1),
              "structure",
              "footer decided count " + std::to_string(footer_->decided) +
                  " != " + std::to_string(decided) + " decide events");
    }
    if (!footer_->quiescent) return;
    // Over budget (> f crashed): the resilience precondition is void, the
    // run may legitimately stall without deciding. Safety was still checked.
    if (report_.over_budget) return;
    // Below the Byzantine resilience bound (n < 3f + 1) reliable broadcast
    // deterministically stalls — the boundary suite's documented
    // non-decision mode. Safety above was still fully checked.
    if (bcc_protocol() &&
        report_.header.n < 3 * report_.header.f + 1) {
      return;
    }
    for (Pid p = 0; p < procs_.size(); ++p) {
      // A single-node trace only proves its own process's liveness.
      if (perspective_trace() &&
          p != static_cast<Pid>(report_.header.perspective)) {
        continue;
      }
      // A Byzantine-protocol process that recorded an *empty* round-0
      // polytope halted at line 5 (Γ = ∅, possible below the vector-
      // consensus bound n >= (d+2)f + 1): the non-decision is explicit in
      // the trace, not a liveness bug.
      if (bcc_protocol() && procs_[p].back().round0_empty) continue;
      if (!is_faulty(p) && !ever_crashed(p) && !procs_[p].back().decided) {
        violate(footer_line_, 0, p, static_cast<std::size_t>(-1), "liveness",
                "quiescent run but fault-free process did not decide");
      }
    }
  }

  /// Stable-vector Containment (paper §3): round-0 views are totally
  /// ordered by inclusion. The store is grow-only, so the property spans
  /// incarnations too — a recovered process's re-collected view must be
  /// inclusion-ordered against every other view, including earlier views
  /// of the same process.
  void check_view_containment() {
    if (bcc_protocol()) {
      check_view_rbc_agreement();
      return;
    }
    const auto subset = [](const std::map<Pid, geo::Vec>& a,
                           const std::map<Pid, geo::Vec>& b) {
      for (const auto& [origin, x] : a) {
        const auto it = b.find(origin);
        if (it == b.end() || !(it->second == x)) return false;
      }
      return true;
    };
    struct ViewRef {
      Pid p;
      const PState* ps;
    };
    std::vector<ViewRef> views;
    for (Pid p = 0; p < procs_.size(); ++p) {
      for (const PState& ps : procs_[p]) {
        if (ps.has_round0) views.push_back({p, &ps});
      }
    }
    for (std::size_t i = 0; i < views.size(); ++i) {
      for (std::size_t j = i + 1; j < views.size(); ++j) {
        const PState& a = *views[i].ps;
        const PState& b = *views[j].ps;
        if (!subset(a.view, b.view) && !subset(b.view, a.view)) {
          violate(std::max(a.round0_line, b.round0_line), 0, views[i].p, 0,
                  "sv-containment",
                  "round-0 views of processes " + std::to_string(views[i].p) +
                      " and " + std::to_string(views[j].p) +
                      " are not inclusion-ordered");
        }
      }
    }
  }

  /// Byzantine replacement for stable-vector containment: the verified
  /// multisets X_i are first-(n-f) prefixes of each process's own RBC
  /// delivery order, so they are not inclusion-ordered — but reliable
  /// broadcast's agreement property forces any two processes that deliver
  /// a value for the same origin to deliver the *same* value. An origin
  /// appearing with two different points across recorded views would mean
  /// an equivocation survived the broadcast layer.
  void check_view_rbc_agreement() {
    struct ViewRef {
      Pid p;
      const PState* ps;
    };
    std::vector<ViewRef> views;
    for (Pid p = 0; p < procs_.size(); ++p) {
      for (const PState& ps : procs_[p]) {
        if (ps.has_round0) views.push_back({p, &ps});
      }
    }
    for (std::size_t i = 0; i < views.size(); ++i) {
      for (std::size_t j = i + 1; j < views.size(); ++j) {
        const PState& a = *views[i].ps;
        const PState& b = *views[j].ps;
        for (const auto& [origin, x] : a.view) {
          const auto it = b.view.find(origin);
          if (it == b.view.end() || it->second == x) continue;
          violate(std::max(a.round0_line, b.round0_line), 0, views[i].p, 0,
                  "rbc-agreement",
                  "processes " + std::to_string(views[i].p) + " and " +
                      std::to_string(views[j].p) +
                      " verified different inputs for origin " +
                      std::to_string(origin));
        }
      }
    }
  }

  /// Geometric slack for resolution-limited snapshots (see below).
  double collapse_slack() const {
    return std::max(opts_.tol,
                    1e-4 * std::max(1.0, report_.header.input_magnitude));
  }

  /// True when the recorded polytope carries no geometry meaningfully
  /// above the kernel's degeneracy resolution: a collapsed vertex count
  /// (<= d vertices means zero volume in d dimensions) or a diameter
  /// within an order of magnitude of the collapse scale. Long live runs
  /// contract states far below that scale — each hull/LP pass then
  /// carries error that is a visible fraction of the state's own extent
  /// (observed: ~2% at diameter 2e-4 under unit magnitude), so
  /// cross-process bounds can only be asserted to the collapse
  /// resolution for such snapshots, not to the exact tolerance. A real
  /// protocol violation displaces states by O(initial extent), orders of
  /// magnitude above this threshold.
  bool resolution_limited(const geo::Polytope& poly) const {
    const auto& vs = poly.vertices();
    if (vs.size() <= static_cast<std::size_t>(report_.header.d)) return true;
    const double slack = 10.0 * collapse_slack();
    double diam2 = 0.0;
    for (std::size_t a = 0; a < vs.size(); ++a) {
      for (std::size_t b = a + 1; b < vs.size(); ++b) {
        double s = 0.0;
        for (std::size_t k = 0; k < vs[a].dim(); ++k) {
          const double dx = vs[a][k] - vs[b][k];
          s += dx * dx;
        }
        diam2 = std::max(diam2, s);
      }
    }
    return diam2 <= slack * slack;
  }

  /// Validity (every snapshot inside the hull of the validity inputs) and
  /// round containment h_i[t] ⊆ H(∪_{j ∈ senders} h_j[t-1]).
  void check_validity_and_containment() {
    const TraceHeader& h = report_.header;
    std::vector<geo::Vec> validity_pts;
    for (Pid p = 0; p < h.inputs.size(); ++p) {
      if (h.correct_inputs_model || !is_faulty(p)) {
        validity_pts.emplace_back(h.inputs[p]);
      }
    }
    const geo::Polytope validity_hull =
        geo::Polytope::from_points(validity_pts, h.rel_tol);

    for (Pid p = 0; p < procs_.size(); ++p) {
      for (const PState& ps : procs_[p]) {
        for (const auto& [t, snap] : ps.h) {
          ++report_.snapshots_checked;
          if (!validity_hull.contains(snap.poly, opts_.tol)) {
            violate(snap.line, snap.seq, p, t, "validity",
                    "state reaches outside the hull of the validity inputs");
          }
          if (t == 0) continue;
          // Union of the senders' previous states; the equal-weight L of
          // Definition 2 cannot escape their joint hull. A sender that
          // crashed and recovered has one round-(t-1) state per incarnation
          // and the receiver may hold either, so union all of them.
          std::vector<geo::Vec> union_pts;
          bool have_all = true;
          for (const Pid s : snap.senders) {
            if (s >= procs_.size()) continue;  // already flagged
            bool found = false;
            for (const PState& sps : procs_[s]) {
              const auto it = sps.h.find(t - 1);
              if (it == sps.h.end()) continue;
              found = true;
              const auto& verts = it->second.poly.vertices();
              union_pts.insert(union_pts.end(), verts.begin(), verts.end());
            }
            if (!found) {
              // A single-node trace cannot contain its peers' states (the
              // union-form containment is checked on the merged cluster
              // trace instead), and a declared-Byzantine sender in a bcc
              // trace never records protocol events — its verified state
              // lives only inside the receivers. Both are counted, not
              // violated.
              if (perspective_trace() || (bcc_protocol() && is_faulty(s))) {
                ++report_.containments_skipped;
              } else {
                violate(snap.line, snap.seq, p, t, "containment",
                        "sender " + std::to_string(s) +
                            " has no recorded state for round " +
                            std::to_string(t - 1));
              }
              have_all = false;
              break;
            }
          }
          if (!have_all || union_pts.empty()) continue;
          const geo::Polytope joint =
              geo::Polytope::from_points(union_pts, h.rel_tol);
          ++report_.containments_checked;
          const double ctol = resolution_limited(snap.poly)
                                  ? collapse_slack()
                                  : opts_.tol;
          if (!joint.contains(snap.poly, ctol)) {
            double excess = 0.0;
            for (const geo::Vec& v : snap.poly.vertices()) {
              excess = std::max(excess, joint.distance(v));
            }
            violate(snap.line, snap.seq, p, t, "containment",
                    "h[t] escapes the senders' round t-1 states by " +
                        std::to_string(excess));
          }
        }
      }
    }
  }

  /// Lemma 3 contraction per round and ε-agreement at decision time. Both
  /// are checked on first incarnations only: the bounds are stated for
  /// processes that never crashed, and a recovered (hence faulty)
  /// incarnation rebuilds its round-0 state at a later point of the
  /// execution, outside the transition-matrix chain the lemma bounds.
  void check_contraction_and_agreement() {
    const TraceHeader& h = report_.header;
    if (h.max_polytope_vertices != 0) return;  // pruning error is unbounded
    const double scale =
        std::sqrt(static_cast<double>(h.d) * static_cast<double>(h.n) *
                  static_cast<double>(h.n) * h.input_magnitude *
                  h.input_magnitude);
    for (std::size_t t = 1; t <= report_.rounds_seen; ++t) {
      const double bound =
          std::pow(1.0 - 1.0 / static_cast<double>(h.n),
                   static_cast<double>(t)) *
          scale;
      for (Pid i = 0; i < procs_.size(); ++i) {
        const PState& pi = procs_[i].front();
        const auto it = pi.h.find(t);
        if (it == pi.h.end()) continue;
        for (Pid j = i + 1; j < procs_.size(); ++j) {
          const PState& pj = procs_[j].front();
          const auto jt = pj.h.find(t);
          if (jt == pj.h.end()) continue;
          ++report_.pairs_checked;
          const double dh = geo::hausdorff(it->second.poly, jt->second.poly);
          if (dh > bound + opts_.tol) {
            violate(std::max(it->second.line, jt->second.line),
                    std::max(it->second.seq, jt->second.seq), i, t,
                    "contraction",
                    "d_H = " + std::to_string(dh) + " exceeds (1-1/n)^t " +
                        "bound " + std::to_string(bound) + " vs process " +
                        std::to_string(j));
          }
        }
      }
    }
    for (Pid i = 0; i < procs_.size(); ++i) {
      const PState& pi = procs_[i].front();
      if (!pi.decided || pi.decision.is_empty()) continue;
      for (Pid j = i + 1; j < procs_.size(); ++j) {
        const PState& pj = procs_[j].front();
        if (!pj.decided || pj.decision.is_empty()) continue;
        const double dh = geo::hausdorff(pi.decision, pj.decision);
        if (dh >= h.eps + opts_.tol) {
          violate(std::max(pi.decide_line, pj.decide_line), 0, i,
                  pi.decide_round, "eps-agreement",
                  "decision Hausdorff distance " + std::to_string(dh) +
                      " vs process " + std::to_string(j) + " breaches eps = " +
                      std::to_string(h.eps));
        }
      }
    }
  }

  /// Lemma 6: I_Z (eq. 20-21, recomputed from the recorded views) is a
  /// floor under every fault-free process's state at every round.
  void check_optimality_floor() {
    const TraceHeader& h = report_.header;
    if (h.round0_naive || h.max_polytope_vertices != 0) return;
    // Lemma 6 is a crash-model result; the Byzantine protocol's decided
    // polytope is an intersection over adversary-proof subsets instead.
    if (bcc_protocol()) return;
    // Z is the intersection of ALL fault-free round-0 views (eq. 20); a
    // single-node trace only has its own view, which over-approximates Z
    // and would inflate I_Z beyond what Lemma 6 guarantees.
    if (perspective_trace()) return;
    // Z = ∩ R_i over EVERY process that completed round 0 — including
    // declared-faulty and later-crashed ones. Any process that records a
    // round-0 view computed a round-0 state from it, and that state may
    // have entered other processes' averaging before the crash (or, for a
    // faulty-but-never-crashed node, all run long); Lemma 6's induction
    // needs I_Z below every state that feeds an average, so its floor can
    // only be asserted for the intersection over all participating views.
    // A declared-faulty node that proceeds at n-f verified values while
    // its peers verify all n has a strictly smaller view; excluding it
    // would inflate I_Z above states its collapsed round-0 state later
    // contracts (observed in live pause_resume runs).
    std::vector<const View*> views;
    for (Pid p = 0; p < procs_.size(); ++p) {
      const PState& ps = procs_[p].front();
      if (ps.has_round0) views.push_back(&ps.view);
    }
    const std::size_t drop = h.correct_inputs_model ? 0 : h.f;
    const geo::Polytope iz = compute_iz(views, drop, h.rel_tol);
    if (iz.is_empty()) return;
    report_.iz_checked = true;
    report_.iz_measure = iz.measure();
    // Resolution-limited snapshots get the collapse slack: exact
    // arithmetic still gives containment (Lemma 6's induction is
    // unaffected by collapse), but the surviving vertex of a fully
    // contracted state can sit ~1e-5 from a point-degenerate I_Z. Live
    // cluster runs where one node's round-0 view strictly contains its
    // peers' n-f-sized views make I_Z exactly the subset-hull
    // intersection point and hit this every time.
    for (Pid p = 0; p < procs_.size(); ++p) {
      if (is_faulty(p) || ever_crashed(p)) continue;
      for (const auto& [t, snap] : procs_[p].front().h) {
        const double tol =
            resolution_limited(snap.poly) ? collapse_slack() : opts_.tol;
        if (!snap.poly.contains(iz, tol)) {
          violate(snap.line, snap.seq, p, t, "optimality-floor",
                  "I_Z is not contained in the recorded state (Lemma 6)");
        }
      }
    }
  }

  const std::vector<std::string>& lines_;
  const CheckOptions& opts_;
  CheckReport report_;
  /// procs_[p] is the incarnation list of process p, oldest first; a
  /// kRecover event appends a fresh entry (state loss).
  std::vector<std::vector<PState>> procs_;
  std::optional<TraceFooter> footer_;
  std::size_t footer_line_ = 0;
};

}  // namespace

std::string summary_line(const CheckReport& r) {
  std::ostringstream os;
  os << "events=" << r.events << " snapshots=" << r.snapshots_checked
     << " containments=" << r.containments_checked
     << " pairs=" << r.pairs_checked << " rounds=" << r.rounds_seen
     << " iz=" << (r.iz_checked ? "yes" : "skipped");
  if (r.containments_skipped != 0) {
    os << " containments_skipped=" << r.containments_skipped;
  }
  if (r.recoveries != 0) os << " recoveries=" << r.recoveries;
  if (r.truncated_tail) os << " truncated-tail";
  return os.str();
}

CheckReport check_trace_lines(const std::vector<std::string>& lines,
                              const CheckOptions& opts) {
  return Checker(lines, opts).run();
}

CheckReport check_trace_file(const std::string& path,
                             const CheckOptions& opts) {
  std::vector<std::string> lines;
  if (!read_jsonl(path, lines)) {
    CheckReport r;
    r.parse_error = "cannot open " + path;
    return r;
  }
  return check_trace_lines(lines, opts);
}

}  // namespace chc::obs
