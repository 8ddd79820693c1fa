// Byzantine convex consensus (BCC) — the verified-multiset construction of
// "Byzantine Convex Consensus: An Optimal Algorithm" (arXiv 1307.1332),
// built on reliable broadcast so only *adversary-proof* data ever enters
// the geometry.
//
// The crash-fault Algorithm CC trusts whatever a peer sends. Under
// Byzantine faults nothing a faulty peer says can be trusted, so this
// protocol never ships geometry between processes at all. Instead every
// process reliably broadcasts (rbc::SlotBroadcast, one Bracha instance per
// slot):
//
//   slot 0      its input point x_i;
//   slot r + 1  a *report*: the sorted id multiset its round-r state was
//               computed from (r = 0 .. t_end - 1).
//
// Receivers recompute every peer's claimed state locally from RBC-verified
// data, in report order:
//
//   state(j, 0) = Γ(X_j) = ∩_{C ⊆ X_j, |C| = |X_j| - f} H(inputs of C)
//                 — verifiable once all inputs named by X_j have been
//                 delivered (totality guarantees they eventually are);
//   state(j, r) = equal-weight combination L of {state(k, r-1) : k ∈
//                 M_j[r]} — verifiable once every referenced state is.
//
// Because RBC agreement makes each origin's slot content identical at all
// correct receivers, a shared sender's recomputed state is identical
// everywhere: a Byzantine process can choose *which* valid ids it reports
// (or report garbage and be ignored) but cannot forge a geometry point or
// present different states to different receivers. Validity follows by
// induction (Γ drops every f-subset, so h_j[0] ⊆ H(fault-free inputs ∩
// X_j); L preserves containment), and the (1 - 1/n)^t contraction of the
// crash analysis carries over verbatim since any two (n-f)-multisets share
// ≥ n - 2f ≥ f + 1 ≥ 1 senders with identical states.
//
// Own progression mirrors Algorithm CC: X_i := first n - f delivered
// inputs; M_i[r] := own state plus the first n - f - 1 other verified
// round-(r-1) states (verification order); decide h_i[t_end] with t_end
// per eq. 19. Resilience: reliable broadcast needs n ≥ 3f + 1 and Γ
// nonemptiness needs n ≥ (d+2)f + 1 (Tverberg/Helly — the vector-consensus
// bound of arXiv 1302.2543), so BCC decides for n ≥ max(3f+1, (d+2)f+1);
// for d = 1 that is exactly 3f + 1. Below 3f + 1 reliable broadcast
// deterministically stalls; in (3f+1 .. (d+2)f+1) for d ≥ 2 the protocol
// halts at an empty Γ (recorded as round0_empty) — the boundary suite
// demonstrates both modes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/trace.hpp"
#include "geometry/polytope.hpp"
#include "rbc/slotcast.hpp"
#include "sim/process.hpp"

namespace chc::bcc {

class ByzCCProcess final : public sim::Process {
 public:
  struct Options {
    /// Run below n = 3f + 1 (resilience-boundary experiments only).
    bool allow_below_bound = false;
  };

  /// `trace` may be null (Byzantine incarnations record nothing — their
  /// claimed states live only inside the correct receivers).
  ByzCCProcess(const core::CCConfig& cfg, geo::Vec input,
               core::TraceCollector* trace, Options options);
  ByzCCProcess(const core::CCConfig& cfg, geo::Vec input,
               core::TraceCollector* trace)
      : ByzCCProcess(cfg, std::move(input), trace, Options{}) {}

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, const sim::Message& msg) override;

  bool decided() const { return decided_; }
  const std::optional<geo::Polytope>& decision() const { return decision_; }
  /// Inbound messages shed by validation (RBC layer + semantic decode).
  std::uint64_t rejected() const;

 private:
  using StateKey = std::pair<sim::ProcessId, std::uint32_t>;

  void on_deliver(sim::Context& ctx, sim::ProcessId origin,
                  std::uint32_t slot, const rbc::Bytes& bytes);
  void advance(sim::Context& ctx);
  bool verify_states();
  bool try_verify(sim::ProcessId j, std::uint32_t r,
                  const std::vector<sim::ProcessId>& ids);
  bool step_self(sim::Context& ctx);
  void broadcast_report(sim::Context& ctx, std::uint32_t slot,
                        const std::vector<sim::ProcessId>& ids);
  void mark_state(sim::ProcessId j, std::uint32_t r, geo::Polytope h);

  core::CCConfig cfg_;
  std::size_t t_end_;
  geo::Vec input_;
  core::TraceCollector* trace_;
  Options options_;
  std::unique_ptr<rbc::SlotBroadcast> cast_;

  // RBC-verified data, shared knowledge among correct processes.
  std::map<sim::ProcessId, geo::Vec> inputs_;      ///< slot 0, decoded
  std::set<sim::ProcessId> bad_inputs_;            ///< delivered, undecodable
  std::map<StateKey, std::vector<sim::ProcessId>> pending_;  ///< reports
  std::set<StateKey> invalid_;  ///< claims proven bogus (never verifiable)
  std::map<std::uint32_t, std::map<sim::ProcessId, geo::Polytope>>
      states_;  ///< verified states by round, then origin
  std::map<std::uint32_t, std::vector<sim::ProcessId>>
      order_;  ///< verification order per round (deterministic)
  std::uint64_t rejected_semantic_ = 0;

  // Own progression.
  bool x_fixed_ = false;
  bool round0_failed_ = false;
  std::size_t round_ = 0;  ///< round currently being computed (1-based)
  geo::Polytope h_;  ///< own latest state
  bool decided_ = false;
  std::optional<geo::Polytope> decision_;
};

}  // namespace chc::bcc
