#include "core/process_cc.hpp"

#include "common/check.hpp"
#include "geometry/intern.hpp"

namespace chc::core {

CCProcess::CCProcess(const CCConfig& cfg, geo::Vec input,
                     TraceCollector* trace)
    : cfg_(cfg), t_end_(cfg.t_end()), input_(std::move(input)),
      trace_(trace) {
  CHC_CHECK(input_.dim() == cfg_.d, "input dimension must match config");
  CHC_CHECK(cfg_.n >= 2 * cfg_.f + 1,
            "stable vector requires n >= 2f + 1 (implied by eq. 2 for d>=1)");
}

void CCProcess::on_start(sim::Context& ctx) {
  if (cfg_.round0 == Round0Policy::kNaiveCollect) {
    // Ablation: plain broadcast + first n-f inputs; no Containment property.
    naive_inbox_.emplace(ctx.self(), input_);
    ctx.broadcast_others(kTagNaiveInput, input_);
    maybe_complete_naive_round0(ctx);
    return;
  }
  sv_ = std::make_unique<dsm::StableVector>(cfg_.n, cfg_.f, ctx.self());
  sv_->start(ctx, input_,
             [this](sim::Context& c, const dsm::StableVectorResult& view) {
               on_round0(c, view);
             });
}

void CCProcess::maybe_complete_naive_round0(sim::Context& ctx) {
  if (round0_done_ || naive_inbox_.size() < cfg_.n - cfg_.f) return;
  dsm::StableVectorResult view;
  view.reserve(naive_inbox_.size());
  for (const auto& [from, x] : naive_inbox_) view.emplace_back(from, x);
  on_round0(ctx, view);
}

void CCProcess::on_round0(sim::Context& ctx,
                          const dsm::StableVectorResult& view) {
  CHC_INTERNAL(!round0_done_, "round 0 completed twice");
  round0_done_ = true;

  // X_i := multiset of input points in R_i (line 4).
  std::vector<geo::Vec> points;
  points.reserve(view.size());
  for (const auto& [origin, x] : view) points.push_back(x);

  // h_i[0] := intersection of hulls of all (|X_i|-f)-subsets (line 5);
  // under the correct-inputs model nothing is dropped (plain hull). Γ
  // depends on the view alone, so processes sharing a view share one
  // computation (the per-thread Γ memo).
  geo::Polytope h0 = geo::intersection_of_subset_hulls_memoized(
      points, cfg_.round0_drop(), cfg_.rel_tol);

  if (h0.is_empty()) {
    // Only possible when n < (d+2)f + 1 (Lemma 2 guarantees non-emptiness
    // at or above the bound). The process cannot continue meaningfully.
    round0_failed_ = true;
    if (trace_ != nullptr) {
      trace_->record_round0_empty(ctx.self(), view, ctx.now());
    }
    return;
  }

  h_ = std::move(h0);
  ++completed_rounds_;
  if (trace_ != nullptr) trace_->record_round0(ctx.self(), view, h_, ctx.now());
  enter_round(ctx, 1);
}

void CCProcess::begin_round(sim::Context& ctx) {
  if (trace_ != nullptr) {
    trace_->tracer().emit_with([&] {
      obs::TraceEvent e;
      e.kind = obs::EventKind::kRoundStart;
      e.t = ctx.now();
      e.p = ctx.self();
      e.round = current_round_;
      return e;
    });
  }
  // Line 8: own message joins MSG_i[t]; line 9: send to all others.
  inbox_[current_round_].emplace(ctx.self(), h_);
  ctx.broadcast_others(kTagRound, RoundMsg{current_round_, h_});
}

void CCProcess::enter_round(sim::Context& ctx, std::size_t t) {
  current_round_ = t;
  begin_round(ctx);
  maybe_complete_round(ctx);
}

void CCProcess::maybe_complete_round(sim::Context& ctx) {
  while (current_round_ >= 1 && !decision_.has_value()) {
    auto& msgs = inbox_[current_round_];
    if (msgs.size() < cfg_.n - cfg_.f) return;  // line 12 threshold not met

    // Lines 13-14: Y_i[t] and the equal-weight linear combination L.
    // Operands are the senders' own copies, so identical message multisets
    // across processes (the common case as states converge) hit the memo.
    std::vector<geo::Polytope> y;
    std::set<sim::ProcessId> senders;
    y.reserve(msgs.size());
    for (const auto& [from, poly] : msgs) {
      y.push_back(poly);
      senders.insert(from);
    }
    h_ = geo::equal_weight_combination_memoized(y, cfg_.rel_tol);
    ++completed_rounds_;
    if (trace_ != nullptr) {
      trace_->record_round(ctx.self(), current_round_, std::move(senders),
                           h_, ctx.now());
    }
    inbox_.erase(current_round_);

    if (current_round_ >= t_end_) {  // line 15 / termination
      decision_ = h_;
      if (trace_ != nullptr) {
        trace_->record_decision(ctx.self(), h_, current_round_, ctx.now());
      }
      inbox_.clear();  // late messages are dropped on arrival from here on
      return;
    }
    // Enter the next round inline (buffered messages may complete it too,
    // hence the surrounding loop).
    ++current_round_;
    begin_round(ctx);
  }
}

void CCProcess::on_message(sim::Context& ctx, const sim::Message& msg) {
  if (dsm::StableVector::handles(msg.tag)) {
    if (sv_ != nullptr) sv_->on_message(ctx, msg);
    return;
  }
  if (msg.tag == kTagNaiveInput) {
    naive_inbox_.emplace(msg.from,
                         std::any_cast<const geo::Vec&>(*msg.payload));
    maybe_complete_naive_round0(ctx);
    return;
  }
  CHC_CHECK(msg.tag == kTagRound, "unexpected message tag for CCProcess");
  const auto& rm = std::any_cast<const RoundMsg&>(*msg.payload);
  CHC_INTERNAL(rm.round >= 1, "round messages start at round 1");
  if (decision_.has_value()) return;  // already terminated
  if (rm.round < current_round_) {
    // Stale: that round already completed with n-f messages; the laggards'
    // copies must not re-create an inbox entry that nothing ever erases.
    return;
  }
  // At most one message per sender per round on reliable channels — unless
  // the sender may crash-recover, in which case its fresh incarnation
  // replays the protocol and this receiver keeps the first copy.
  const bool inserted = inbox_[rm.round].emplace(msg.from, rm.h).second;
  if (!inserted) {
    CHC_INTERNAL(allow_sender_restart_,
                 "duplicate round message from one sender");
    return;
  }
  if (round0_done_ && !round0_failed_ && rm.round == current_round_) {
    maybe_complete_round(ctx);
  }
}

void CCProcess::on_timer(sim::Context& ctx, int token) {
  if (sv_ != nullptr) sv_->on_timer(ctx, token);
}

}  // namespace chc::core
