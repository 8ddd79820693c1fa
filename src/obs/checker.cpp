#include "obs/checker.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "geometry/ops.hpp"

namespace chc::obs {

std::string describe(const CheckViolation& v) {
  std::ostringstream os;
  os << "line " << v.line << " seq " << v.seq << ": [" << v.invariant << "]";
  if (v.p != kNoPeer) os << " process " << v.p;
  if (v.round != static_cast<std::size_t>(-1)) os << " round " << v.round;
  os << ": " << v.detail;
  return os.str();
}

namespace {

constexpr std::size_t kNoRound = static_cast<std::size_t>(-1);

/// I_Z per eq. (20)-(21): Z keeps the entries every view holds with an
/// equal point, and I_Z intersects the hulls of all (|Z| - drop)-subsets of
/// Z's points. Empty when `views` is empty or |Z| <= drop (the floor is
/// vacuous).
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

/// The judge over one execution record, and the typed-event front-end that
/// fills a record event by event (checking the trace's structure on the
/// way) before judging it.
class Checker {
 public:
  /// Judges `judged`, or the record the front-end fills when null.
  explicit Checker(const CheckOptions& opts,
                   const ExecutionRecord* judged = nullptr)
      : opts_(opts), rec_(judged != nullptr ? judged : &own_) {}

  /// The unparsed report, for a trace found malformed.
  CheckReport fail(std::string error) {
    report_.parse_error = std::move(error);
    return malformed();
  }
  CheckReport malformed() { return std::move(report_); }

  /// Validates the header and opens one incarnation per process. False
  /// (parse_error set) on a malformed header.
  bool begin(const TraceHeader& h) {
    own_.header = h;
    std::string bad;
    if (h.d == 0 || h.inputs.size() != h.n) {
      bad = "inputs do not match n";
    } else if (h.f >= h.n) {
      bad = "f must be below n";
    } else if (!std::all_of(h.inputs.begin(), h.inputs.end(),
                            [&](const std::vector<double>& row) {
                              return row.size() == h.d;
                            })) {
      bad = "input row is not d-dimensional";
    } else if (!(std::isfinite(h.eps) && h.eps > 0.0)) {
      bad = "eps must be finite and positive";
    } else if (!(std::isfinite(h.input_magnitude) &&
                 h.input_magnitude > 0.0)) {
      bad = "input_magnitude must be finite and positive";
    } else if (!(std::isfinite(h.rel_tol) && h.rel_tol >= 0.0)) {
      bad = "rel_tol must be finite and non-negative";
    }
    if (!bad.empty()) {
      report_.parse_error = "header: " + bad;
      return false;
    }
    for (Pid p = 0; p < h.n; ++p) {
      const bool faulty =
          std::find(h.faulty.begin(), h.faulty.end(), p) != h.faulty.end();
      if (h.correct_inputs_model || !faulty) {
        own_.validity_inputs.emplace_back(h.inputs[p]);
      }
    }
    own_.procs.assign(h.n, std::vector<Incarnation>(1));
    return true;
  }

  /// One event in emission order. False (parse_error set) when one of its
  /// points is not d-dimensional.
  bool on_event(const TraceEvent& e, std::size_t line_no) {
    const TraceHeader& h = own_.header;
    const auto wrong_dim = [&](const geo::Vec& x) { return x.dim() != h.d; };
    const auto wrong_view_dim = [&](const std::pair<Pid, geo::Vec>& entry) {
      return wrong_dim(entry.second);
    };
    if (std::any_of(e.verts.begin(), e.verts.end(), wrong_dim) ||
        std::any_of(e.view.begin(), e.view.end(), wrong_view_dim)) {
      report_.parse_error = "line " + std::to_string(line_no) +
                            ": point is not " + std::to_string(h.d) +
                            "-dimensional";
      return false;
    }
    ++report_.events;

    // Global ordering (deterministic simulator traces only).
    if (h.env == "sim") {
      if (have_seq_ && e.seq <= prev_seq_) {
        violate(line_no, e.seq, e.p, kNoRound, "structure",
                "seq not strictly increasing");
      }
      if (have_seq_ && e.t < prev_t_) {
        violate(line_no, e.seq, e.p, kNoRound, "structure",
                "event time decreased");
      }
      prev_seq_ = e.seq;
      prev_t_ = e.t;
      have_seq_ = true;
    }

    if (e.p >= h.n) {
      violate(line_no, e.seq, e.p, kNoRound, "structure",
              "process id out of range");
      return true;
    }
    if (e.peer != kNoPeer && e.peer >= h.n) {
      violate(line_no, e.seq, e.p, kNoRound, "structure",
              "peer id out of range");
    }
    if (h.perspective >= 0 && e.p != static_cast<Pid>(h.perspective)) {
      violate(line_no, e.seq, e.p, kNoRound, "structure",
              "event from a foreign process in a single-node trace");
      return true;
    }
    Incarnation& ps = own_.procs[e.p].back();

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
    if (h.env == "sim" && process_emitted && ps.crashed && e.t > ps.crash_t) {
      violate(line_no, e.seq, e.p, kNoRound, "structure",
              "event from a crashed process");
    }

    switch (e.kind) {
      case EventKind::kCrash:
        if (ps.crashed) {
          violate(line_no, e.seq, e.p, kNoRound, "structure",
                  "duplicate crash event");
        }
        ps.crashed = true;
        ps.crash_t = e.t;
        break;
      case EventKind::kRecover:
        if (!ps.crashed) {
          violate(line_no, e.seq, e.p, kNoRound, "structure",
                  "recovery without a preceding crash");
          break;
        }
        // Fresh incarnation with empty state (state loss); subsequent
        // events for p land on it.
        own_.procs[e.p].emplace_back();
        ++report_.recoveries;
        break;
      case EventKind::kRecv:
        if (h.env == "sim" && ps.crashed) {
          violate(line_no, e.seq, e.p, kNoRound, "structure",
                  "delivery to a crashed process");
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
        on_round0(ps, e, line_no);
        break;
      case EventKind::kRound:
        on_round(ps, e, line_no);
        break;
      case EventKind::kDecide:
        on_decide(ps, e, line_no);
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
    return true;
  }

  void on_footer(const TraceFooter& f, std::size_t line_no, bool last) {
    if (!last) {
      violate(line_no, 0, kNoPeer, kNoRound, "structure",
              "footer is not the last record");
    }
    own_.footer = f;
    own_.footer_line = line_no;
  }

  /// A torn final line of a live trace (a node killed mid-write).
  void truncated_tail() { report_.truncated_tail = true; }

  /// Every invariant of the header comment except the front-end's
  /// structure checks, plus the decision-level verdict.
  CheckReport judge() {
    report_.parsed = true;
    report_.header = h();
    report_.over_budget = crashed_set_size() > h().f;
    for (const auto& incs : rec_->procs) {
      for (const Incarnation& inc : incs) {
        if (!inc.h.empty()) {
          report_.rounds_seen =
              std::max(report_.rounds_seen, inc.h.rbegin()->first);
        }
      }
    }

    check_liveness();
    check_views();
    check_validity_and_containment();
    check_contraction_and_agreement();
    check_optimality_floor();

    // No verdict until a process outside the declared faulty set decided.
    if (!fault_free_decided()) report_.decisions = DecisionVerdict{};
    std::stable_sort(report_.violations.begin(), report_.violations.end(),
                     [](const CheckViolation& a, const CheckViolation& b) {
                       return a.line < b.line;
                     });
    return std::move(report_);
  }

 private:
  const TraceHeader& h() const { return rec_->header; }

  void violate(std::size_t line, std::uint64_t seq, Pid p, std::size_t round,
               std::string invariant, std::string detail) {
    if (report_.violations.size() >= opts_.max_violations) return;
    report_.violations.push_back(
        {line, seq, p, round, std::move(invariant), std::move(detail)});
  }

  /// Byzantine convex consensus trace (src/bcc) — see the header comment
  /// for the model-driven deltas.
  bool bcc_protocol() const { return h().protocol == "bcc"; }
  /// Single-node live trace: only this process's protocol events are
  /// recorded, so cross-process lookups must not be treated as violations.
  bool perspective_trace() const { return h().perspective >= 0; }

  bool is_faulty(Pid p) const {
    const auto& faulty = h().faulty;
    return std::find(faulty.begin(), faulty.end(), p) != faulty.end();
  }

  bool ever_crashed(Pid p) const {
    const auto& incs = rec_->procs[p];
    return std::any_of(incs.begin(), incs.end(),
                       [](const Incarnation& inc) { return inc.crashed; });
  }

  /// |faulty ∪ {p : p crashed}| — the adversary's actual budget use.
  std::size_t crashed_set_size() const {
    std::set<Pid> s(h().faulty.begin(), h().faulty.end());
    for (Pid p = 0; p < rec_->procs.size(); ++p) {
      if (ever_crashed(p)) s.insert(p);
    }
    return s.size();
  }

  bool fault_free_decided() const {
    for (Pid p = 0; p < rec_->procs.size(); ++p) {
      if (is_faulty(p)) continue;
      for (const Incarnation& inc : rec_->procs[p]) {
        if (inc.decided) return true;
      }
    }
    return false;
  }

  void check_liveness() {
    if (!rec_->footer) return;
    const TraceFooter& footer = *rec_->footer;
    // The footer counts decisions the harness's collector holds at the end
    // of the run, which are the *latest* incarnations' decisions.
    std::uint64_t decided = 0;
    for (const auto& incs : rec_->procs) decided += incs.back().decided ? 1 : 0;
    if (decided != footer.decided) {
      violate(rec_->footer_line, 0, kNoPeer, kNoRound, "structure",
              "footer decided count " + std::to_string(footer.decided) +
                  " != " + std::to_string(decided) + " decide events");
    }
    if (!footer.quiescent) return;
    // Over budget (> f crashed): the resilience precondition is void, the
    // run may legitimately stall without deciding. Safety was still checked.
    if (report_.over_budget) return;
    // Below the Byzantine resilience bound (n < 3f + 1) reliable broadcast
    // deterministically stalls — the boundary suite's documented
    // non-decision mode. Safety above was still fully checked.
    if (bcc_protocol() && h().n < 3 * h().f + 1) return;
    for (Pid p = 0; p < rec_->procs.size(); ++p) {
      // A single-node trace only proves its own process's liveness.
      if (perspective_trace() && p != static_cast<Pid>(h().perspective)) {
        continue;
      }
      // A Byzantine-protocol process that recorded an *empty* round-0
      // polytope halted at line 5 (Γ = ∅, possible below the vector-
      // consensus bound n >= (d+2)f + 1): the non-decision is explicit in
      // the trace, not a liveness bug.
      if (bcc_protocol() && rec_->procs[p].back().round0_empty) continue;
      if (!is_faulty(p) && !ever_crashed(p) && !rec_->procs[p].back().decided) {
        violate(rec_->footer_line, 0, p, kNoRound, "liveness",
                "quiescent run but fault-free process did not decide");
      }
    }
  }

  struct ViewRef {
    Pid p;
    const Incarnation* inc;
  };

  std::vector<ViewRef> recorded_views() const {
    std::vector<ViewRef> views;
    for (Pid p = 0; p < rec_->procs.size(); ++p) {
      for (const Incarnation& inc : rec_->procs[p]) {
        if (inc.has_round0) views.push_back({p, &inc});
      }
    }
    return views;
  }

  /// Stable-vector Containment (paper §3): round-0 views are totally
  /// ordered by inclusion. The store is grow-only, so the property spans
  /// incarnations too — a recovered process's re-collected view must be
  /// inclusion-ordered against every other view, including earlier views
  /// of the same process.
  ///
  /// Byzantine replacement: the verified multisets X_i are first-(n-f)
  /// prefixes of each process's own RBC delivery order, so they are not
  /// inclusion-ordered — but reliable broadcast's agreement property
  /// forces any two processes that deliver a value for the same origin to
  /// deliver the *same* value. An origin appearing with two different
  /// points across recorded views would mean an equivocation survived the
  /// broadcast layer.
  void check_views() {
    const auto subset = [](const View& a, const View& b) {
      for (const auto& [origin, x] : a) {
        const auto it = b.find(origin);
        if (it == b.end() || !(it->second == x)) return false;
      }
      return true;
    };
    const std::vector<ViewRef> views = recorded_views();
    for (std::size_t i = 0; i < views.size(); ++i) {
      for (std::size_t j = i + 1; j < views.size(); ++j) {
        const Incarnation& a = *views[i].inc;
        const Incarnation& b = *views[j].inc;
        const std::size_t line = std::max(a.round0_line, b.round0_line);
        const auto pair = [&] {
          return std::to_string(views[i].p) + " and " +
                 std::to_string(views[j].p);
        };
        if (!bcc_protocol()) {
          if (!subset(a.view, b.view) && !subset(b.view, a.view)) {
            violate(line, 0, views[i].p, 0, "sv-containment",
                    "round-0 views of processes " + pair() +
                        " are not inclusion-ordered");
          }
          continue;
        }
        for (const auto& [origin, x] : a.view) {
          const auto it = b.view.find(origin);
          if (it == b.view.end() || it->second == x) continue;
          violate(line, 0, views[i].p, 0, "rbc-agreement",
                  "processes " + pair() +
                      " verified different inputs for origin " +
                      std::to_string(origin));
        }
      }
    }
  }

  /// Geometric slack for resolution-limited snapshots (see below).
  double collapse_slack() const {
    return std::max(opts_.tol, 1e-4 * std::max(1.0, h().input_magnitude));
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
    if (vs.size() <= static_cast<std::size_t>(h().d)) return true;
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

  /// outer ⊇ inner within the exact tolerance, or within the collapse
  /// slack when the recorded `state` under judgement (inner for round
  /// containment, outer for the floor) is resolution-limited. The slack is
  /// only evaluated after the strict test fails.
  bool contains(const geo::Polytope& outer, const geo::Polytope& inner,
                const geo::Polytope& state) const {
    return outer.contains(inner, opts_.tol) ||
           (resolution_limited(state) &&
            outer.contains(inner, collapse_slack()));
  }

  /// Validity (every snapshot inside the hull of the validity inputs) and
  /// round containment h_i[t] ⊆ H(∪_{j ∈ senders} h_j[t-1]); the validity
  /// verdict over every recorded decision.
  void check_validity_and_containment() {
    const geo::Polytope validity_hull =
        geo::Polytope::from_points(rec_->validity_inputs, h().rel_tol);
    report_.validity_hull_measure = validity_hull.measure();
    report_.decisions.validity = true;
    for (Pid p = 0; p < rec_->procs.size(); ++p) {
      for (const Incarnation& inc : rec_->procs[p]) {
        if (inc.decided && !validity_hull.contains(inc.decision, opts_.tol)) {
          report_.decisions.validity = false;
        }
        for (const auto& [t, snap] : inc.h) {
          ++report_.snapshots_checked;
          if (!validity_hull.contains(snap.poly, opts_.tol)) {
            violate(snap.line, snap.seq, p, t, "validity",
                    "state reaches outside the hull of the validity inputs");
          }
          if (t != 0) check_round_containment(p, t, snap);
        }
      }
    }
  }

  void check_round_containment(Pid p, std::size_t t, const Snapshot& snap) {
    // Union of the senders' previous states; the equal-weight L of
    // Definition 2 cannot escape their joint hull. A sender that crashed
    // and recovered has one round-(t-1) state per incarnation and the
    // receiver may hold either, so union all of them.
    std::vector<geo::Vec> union_pts;
    for (const Pid s : snap.senders) {
      if (s >= rec_->procs.size()) continue;  // already flagged
      bool found = false;
      for (const Incarnation& sinc : rec_->procs[s]) {
        const auto it = sinc.h.find(t - 1);
        if (it == sinc.h.end()) continue;
        found = true;
        const auto& verts = it->second.poly.vertices();
        union_pts.insert(union_pts.end(), verts.begin(), verts.end());
      }
      if (!found) {
        // A single-node trace cannot contain its peers' states (the
        // union-form containment is checked on the merged cluster trace
        // instead), and a declared-Byzantine sender in a bcc trace never
        // records protocol events — its verified state lives only inside
        // the receivers. Both are counted, not violated.
        if (perspective_trace() || (bcc_protocol() && is_faulty(s))) {
          ++report_.containments_skipped;
        } else {
          violate(snap.line, snap.seq, p, t, "containment",
                  "sender " + std::to_string(s) +
                      " has no recorded state for round " +
                      std::to_string(t - 1));
        }
        return;
      }
    }
    if (union_pts.empty()) return;
    const geo::Polytope joint =
        geo::Polytope::from_points(union_pts, h().rel_tol);
    ++report_.containments_checked;
    if (!contains(joint, snap.poly, snap.poly)) {
      double excess = 0.0;
      for (const geo::Vec& v : snap.poly.vertices()) {
        excess = std::max(excess, joint.distance(v));
      }
      violate(snap.line, snap.seq, p, t, "containment",
              "h[t] escapes the senders' round t-1 states by " +
                  std::to_string(excess));
    }
  }

  /// Lemma 3 contraction per round and ε-agreement at decision time. Both
  /// cover first incarnations only: the bounds are stated for processes
  /// that never crashed, and a recovered (hence faulty) incarnation
  /// rebuilds its round-0 state at a later point of the execution, outside
  /// the transition-matrix chain the lemma bounds.
  void check_contraction_and_agreement() {
    check_contraction();
    DecisionVerdict& v = report_.decisions;
    v.agreement = true;
    for (Pid i = 0; i < rec_->procs.size(); ++i) {
      const Incarnation& pi = rec_->procs[i].front();
      if (!pi.decided || pi.decision.is_empty()) continue;
      for (Pid j = i + 1; j < rec_->procs.size(); ++j) {
        const Incarnation& pj = rec_->procs[j].front();
        if (!pj.decided || pj.decision.is_empty()) continue;
        const double dh = geo::hausdorff(pi.decision, pj.decision);
        v.max_pairwise_hausdorff = std::max(v.max_pairwise_hausdorff, dh);
        if (dh < h().eps + opts_.tol) continue;
        v.agreement = false;
        violate(std::max(pi.decide_line, pj.decide_line), 0, i,
                pi.decide_round, "eps-agreement",
                "decision Hausdorff distance " + std::to_string(dh) +
                    " vs process " + std::to_string(j) + " breaches eps = " +
                    std::to_string(h().eps));
      }
    }
  }

  void check_contraction() {
    const double scale =
        std::sqrt(static_cast<double>(h().d) * static_cast<double>(h().n) *
                  static_cast<double>(h().n) * h().input_magnitude *
                  h().input_magnitude);
    for (std::size_t t = 1; t <= report_.rounds_seen; ++t) {
      const double bound =
          std::pow(1.0 - 1.0 / static_cast<double>(h().n),
                   static_cast<double>(t)) *
          scale;
      for (Pid i = 0; i < rec_->procs.size(); ++i) {
        const Incarnation& pi = rec_->procs[i].front();
        const auto it = pi.h.find(t);
        if (it == pi.h.end()) continue;
        for (Pid j = i + 1; j < rec_->procs.size(); ++j) {
          const Incarnation& pj = rec_->procs[j].front();
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
  }

  /// Lemma 6: I_Z (eq. 20-21, recomputed from the recorded views) is a
  /// floor under every fault-free process's state at every round.
  void check_optimality_floor() {
    // Lemma 6 is a crash-model result; the Byzantine protocol's decided
    // polytope is an intersection over adversary-proof subsets instead.
    if (bcc_protocol()) return;
    // Z is the intersection of ALL round-0 views (eq. 20); a single-node
    // trace only has its own view, which over-approximates Z and would
    // inflate I_Z beyond what Lemma 6 guarantees.
    if (perspective_trace()) return;
    // Z = ∩ R_i over EVERY recorded round-0 view — of declared-faulty and
    // later-crashed processes, and of every incarnation. Any process that
    // records a round-0 view computed a round-0 state from it, and that
    // state may have entered other processes' averaging before the crash
    // (or, for a faulty-but-never-crashed node, all run long); Lemma 6's
    // induction needs I_Z below every state that feeds an average, so its
    // floor can only be asserted for the intersection over all
    // participating views. A declared-faulty node that proceeds at n-f
    // verified values while its peers verify all n has a strictly smaller
    // view; excluding it would inflate I_Z above states its collapsed
    // round-0 state later contracts (observed in live pause_resume runs).
    std::vector<const View*> views;
    for (const ViewRef& ref : recorded_views()) views.push_back(&ref.inc->view);
    const std::size_t drop = h().correct_inputs_model ? 0 : h().f;
    const geo::Polytope iz = compute_iz(views, drop, h().rel_tol);
    // A vacuous floor (only possible without the stable vector) leaves
    // optimality false.
    if (iz.is_empty()) return;
    report_.iz_measure = iz.measure();
    report_.iz_checked = !h().round0_naive;
    report_.decisions.optimality = true;
    // Resolution-limited states get the collapse slack: exact arithmetic
    // still gives containment (Lemma 6's induction is unaffected by
    // collapse), but the surviving vertex of a fully contracted state can
    // sit ~1e-5 from a point-degenerate I_Z. Live cluster runs where one
    // node's round-0 view strictly contains its peers' n-f-sized views
    // make I_Z exactly the subset-hull intersection point and hit this
    // every time.
    for (Pid p = 0; p < rec_->procs.size(); ++p) {
      if (is_faulty(p) || ever_crashed(p)) continue;
      const Incarnation& inc = rec_->procs[p].front();
      if (inc.decided && !contains(inc.decision, iz, inc.decision)) {
        report_.decisions.optimality = false;
      }
      if (!report_.iz_checked) continue;
      for (const auto& [t, snap] : inc.h) {
        if (!contains(snap.poly, iz, snap.poly)) {
          violate(snap.line, snap.seq, p, t, "optimality-floor",
                  "I_Z is not contained in the recorded state (Lemma 6)");
        }
      }
    }
  }

  void on_round0(Incarnation& ps, const TraceEvent& e, std::size_t line_no) {
    if (ps.has_round0) {
      violate(line_no, e.seq, e.p, 0, "structure", "round 0 recorded twice");
      return;
    }
    const TraceHeader& h = own_.header;
    ps.has_round0 = true;
    ps.round0_line = line_no;
    ps.round0_empty = e.kind == EventKind::kRound0Empty;
    for (const auto& [origin, x] : e.view) ps.view.emplace(origin, x);
    if (e.view.size() < h.n - h.f) {
      violate(line_no, e.seq, e.p, 0, "structure",
              "round-0 view smaller than n - f");
    }
    if (ps.round0_empty) return;
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

  void on_round(Incarnation& ps, const TraceEvent& e, std::size_t line_no) {
    const TraceHeader& h = own_.header;
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
  }

  void on_decide(Incarnation& ps, const TraceEvent& e, std::size_t line_no) {
    const TraceHeader& h = own_.header;
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

  const CheckOptions& opts_;
  ExecutionRecord own_;  ///< the record the front-end fills
  const ExecutionRecord* rec_;
  CheckReport report_;
  std::uint64_t prev_seq_ = 0;
  bool have_seq_ = false;
  double prev_t_ = 0.0;
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

CheckReport judge(const ExecutionRecord& record, const CheckOptions& opts) {
  return Checker(opts, &record).judge();
}

CheckReport check_trace_events(const TraceHeader& header,
                               const std::vector<TraceEvent>& events,
                               const std::optional<TraceFooter>& footer,
                               const CheckOptions& opts) {
  Checker fe(opts);
  if (!fe.begin(header)) return fe.malformed();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!fe.on_event(events[i], i + 2)) return fe.malformed();
  }
  if (footer) fe.on_footer(*footer, events.size() + 2, true);
  return fe.judge();
}

CheckReport check_sink(const MemorySink& sink, const CheckOptions& opts) {
  const std::vector<std::string> lines = sink.lines();
  const std::vector<TraceEvent> events = sink.events();
  Checker fe(opts);
  TraceHeader header;
  std::string error;
  if (lines.empty() || !parse_header(lines.front(), header, &error)) {
    return fe.fail("header: " + error);
  }
  std::optional<TraceFooter> footer;
  if (lines.size() == events.size() + 2) {
    footer.emplace();
    if (!parse_footer(lines.back(), *footer, &error)) {
      return fe.fail("footer: " + error);
    }
  }
  return check_trace_events(header, events, footer, opts);
}

CheckReport check_trace_lines(const std::vector<std::string>& lines,
                              const CheckOptions& opts) {
  Checker fe(opts);
  if (lines.empty()) return fe.fail("empty trace");
  TraceHeader header;
  std::string error;
  if (!parse_header(lines[0], header, &error)) {
    return fe.fail("header: " + error);
  }
  if (!fe.begin(header)) return fe.malformed();
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::size_t line_no = i + 1;
    const std::string& line = lines[i];
    if (line.find("\"kind\":\"footer\"") != std::string::npos) {
      TraceFooter f;
      if (!parse_footer(line, f, &error)) {
        return fe.fail("line " + std::to_string(line_no) + ": " + error);
      }
      fe.on_footer(f, line_no, i + 1 == lines.size());
      continue;
    }
    TraceEvent e;
    if (!parse_event(line, e, &error)) {
      // A node killed mid-write (SIGKILL) legitimately leaves a torn final
      // line in a live trace; everything before it is still checkable.
      if (header.env == "live" && i + 1 == lines.size()) {
        fe.truncated_tail();
        break;
      }
      return fe.fail("line " + std::to_string(line_no) + ": " + error);
    }
    if (!fe.on_event(e, line_no)) return fe.malformed();
  }
  return fe.judge();
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
