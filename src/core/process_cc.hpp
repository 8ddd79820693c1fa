// Algorithm CC (paper §4): the asynchronous approximate convex hull
// consensus process.
//
//   Round 0:  broadcast the input through the stable-vector primitive;
//             on receiving R_i, set X_i := {x | (x,k,0) ∈ R_i} and
//             h_i[0] := ∩_{C ⊆ X_i, |C| = |X_i|−f} H(C)          (line 5)
//   Round t:  broadcast (h_i[t−1], i, t); when n−f round-t messages are
//             present for the first time (own message included),
//             h_i[t] := L(Y_i[t]; equal weights)                  (line 14)
//   Decide:   h_i[t_end] with t_end from eq. (19).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/trace.hpp"
#include "dsm/stable_vector.hpp"
#include "geometry/polytope.hpp"
#include "sim/process.hpp"

namespace chc::core {

/// Tag for round t >= 1 messages; payload is RoundMsg.
inline constexpr int kTagRound = 200;
/// Tag for the naive round-0 input broadcast (Round0Policy::kNaiveCollect);
/// payload is geo::Vec.
inline constexpr int kTagNaiveInput = 201;

struct RoundMsg {
  std::size_t round;
  geo::Polytope h;  // h_i[round - 1]; receivers share the sender's copy
};

class CCProcess final : public sim::Process {
 public:
  /// `trace` may be null (no recording); must outlive the simulation.
  CCProcess(const CCConfig& cfg, geo::Vec input, TraceCollector* trace);

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, const sim::Message& msg) override;
  void on_timer(sim::Context& ctx, int token) override;

  /// The decision h_i[t_end]; empty until the process terminates.
  const std::optional<geo::Polytope>& decision() const { return decision_; }

  /// Number of completed rounds, round 0 included: t + 1 once h_i[t] is
  /// computed, 0 before round 0 completes. (A traced run records every
  /// h_i[t] in its TraceCollector.)
  std::size_t completed_rounds() const { return completed_rounds_; }

  /// True if round 0 produced an empty polytope (only possible below the
  /// n >= (d+2)f+1 resilience bound) — the process halts in that case.
  bool round0_failed() const { return round0_failed_; }

  const geo::Vec& input() const { return input_; }

  /// Number of rounds with buffered messages (regression hook: stale
  /// rounds must not linger here, and the buffer empties on decision).
  std::size_t buffered_rounds() const { return inbox_.size(); }

  /// Call when the run may crash-recover senders (CrashPlan::recover_at).
  /// A recovered sender restarts the protocol from scratch, so a receiver
  /// can legitimately see a second round-t message from the same process
  /// id — one per incarnation; delivery is at-least-once across a restart
  /// even though each shim epoch is exactly-once. The inbox then keeps the
  /// first copy (safe: every incarnation's round-t state is a valid
  /// algorithm state) instead of treating the duplicate as an internal
  /// exactly-once violation.
  void allow_sender_restart() { allow_sender_restart_ = true; }

 private:
  void on_round0(sim::Context& ctx, const dsm::StableVectorResult& view);
  /// Lines 8-9 for current_round_: insert the own message into the round's
  /// inbox and broadcast it (shared by enter_round and the inline round
  /// advance in maybe_complete_round).
  void begin_round(sim::Context& ctx);
  void enter_round(sim::Context& ctx, std::size_t t);
  void maybe_complete_round(sim::Context& ctx);
  void maybe_complete_naive_round0(sim::Context& ctx);

  CCConfig cfg_;
  std::size_t t_end_;
  geo::Vec input_;
  TraceCollector* trace_;

  std::unique_ptr<dsm::StableVector> sv_;
  geo::Polytope h_;  // current state h_i[current_round_ - 1]
  std::size_t completed_rounds_ = 0;
  std::size_t current_round_ = 0;  // round being executed
  bool round0_done_ = false;
  bool round0_failed_ = false;
  bool allow_sender_restart_ = false;
  std::optional<geo::Polytope> decision_;

  // Buffered round messages: round -> (sender -> state). FIFO
  // channels and the round structure mean at most one message per sender
  // per round. Only rounds >= current_round_ live here: stale messages are
  // dropped on arrival and the buffer is cleared on decision.
  std::map<std::size_t, std::map<sim::ProcessId, geo::Polytope>> inbox_;

  // Naive round-0 ablation: inputs received so far.
  std::map<sim::ProcessId, geo::Vec> naive_inbox_;
};

}  // namespace chc::core
