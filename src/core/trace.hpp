// Execution traces of Algorithm CC.
//
// The correctness (§5) and optimality (§6) arguments of the paper are
// phrased over a concrete execution: the round-0 views R_i, the per-round
// message sets MSG_i[t], and the state polytopes h_i[t]. The TraceCollector
// records exactly these so the analysis module can rebuild the transition
// matrices M[t] (Rules 1–2), replay the matrix state evolution (Theorem 1),
// check the ergodicity bound (Lemma 3 / eq. 12), and hand the verification
// oracle (obs/checker.hpp) every incarnation's round-0 view and decision.
//
// The simulator is single-threaded, so one collector is shared by all
// processes of a run.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "core/config.hpp"
#include "dsm/stable_vector.hpp"
#include "geometry/polytope.hpp"
#include "obs/trace.hpp"
#include "sim/message.hpp"

namespace chc::core {

/// The trace-header fields a CCConfig determines (n, f, d, eps, magnitude,
/// tolerance, round-0 policy, fault model, t_end).
obs::TraceHeader config_header(const CCConfig& cfg);

/// Per-process, per-round record of one execution.
struct ProcessTrace {
  std::optional<dsm::StableVectorResult> round0_view;  ///< R_i
  std::optional<geo::Polytope> h0;                     ///< h_i[0]
  /// Round t >= 1: senders whose message was in MSG_i[t] when the round
  /// completed, and the resulting state h_i[t]. Keyed by t.
  std::map<std::size_t, std::set<sim::ProcessId>> senders;
  std::map<std::size_t, geo::Polytope> h;
  std::optional<geo::Polytope> decision;  ///< h_i[t_end] if decided
  bool round0_empty = false;  ///< h_i[0] was empty (below resilience bound)
};

class TraceCollector {
 public:
  /// `tracer` (optional) receives a structured event per recorded protocol
  /// step (round 0 / round / decision), timestamped with the `now` the
  /// recording call supplies.
  explicit TraceCollector(std::size_t n, obs::Tracer* tracer = nullptr)
      : procs_(n, std::vector<ProcessTrace>(1)) {
    if (tracer != nullptr) tracer_ = tracer;
  }

  /// The attached event tracer (a disabled one when none was attached);
  /// CCProcess emits round_start through it.
  obs::Tracer& tracer() { return *tracer_; }

  void record_round0(sim::ProcessId p, const dsm::StableVectorResult& view,
                     const geo::Polytope& h0, sim::Time now = 0.0);
  void record_round0_empty(sim::ProcessId p,
                           const dsm::StableVectorResult& view,
                           sim::Time now = 0.0);
  void record_round(sim::ProcessId p, std::size_t t,
                    std::set<sim::ProcessId> senders, const geo::Polytope& h,
                    sim::Time now = 0.0);
  void record_decision(sim::ProcessId p, const geo::Polytope& decision,
                       std::size_t round = 0, sim::Time now = 0.0);

  /// Opens a fresh incarnation of p. Called when p restarts after a
  /// crash-recover (state loss): the fresh incarnation re-records round 0.
  /// The retired one is kept for the verification oracle, which builds Z
  /// over every incarnation's round-0 view (obs/checker.hpp).
  void reset_process(sim::ProcessId p) { procs_.at(p).emplace_back(); }

  std::size_t n() const { return procs_.size(); }
  /// The latest incarnation of p.
  const ProcessTrace& of(sim::ProcessId p) const {
    return procs_.at(p).back();
  }
  /// Every incarnation of p, oldest first; the last one is of(p).
  const std::vector<ProcessTrace>& incarnations(sim::ProcessId p) const {
    return procs_.at(p);
  }

  /// Largest round index recorded by any process's latest incarnation.
  std::size_t max_round() const;

  /// Processes whose latest incarnation produced a decision.
  std::vector<sim::ProcessId> decided() const;

 private:
  obs::Tracer disabled_tracer_;
  obs::Tracer* tracer_ = &disabled_tracer_;
  /// procs_[p]: p's incarnations, oldest first.
  std::vector<std::vector<ProcessTrace>> procs_;
};

}  // namespace chc::core
