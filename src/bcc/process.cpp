#include "bcc/process.hpp"

#include <algorithm>
#include <cmath>

#include "codec/codec.hpp"
#include "common/check.hpp"
#include "geometry/intern.hpp"

namespace chc::bcc {

namespace {

/// Strict slot-0 decode: a vec of exactly cfg.d finite coordinates and
/// nothing else. Anything less is a poisoned input claim.
std::optional<geo::Vec> decode_input(const rbc::Bytes& bytes, std::size_t d) {
  codec::Reader r(bytes);
  std::optional<geo::Vec> v = r.read_vec();
  if (!v.has_value() || !r.exhausted() || v->dim() != d) return std::nullopt;
  for (std::size_t k = 0; k < d; ++k) {
    if (!std::isfinite((*v)[k])) return std::nullopt;
  }
  return v;
}

/// Strict report decode: u32 count in [n-f, n], then count strictly
/// increasing u32 ids below n, nothing else.
std::optional<std::vector<sim::ProcessId>> decode_report(
    const rbc::Bytes& bytes, std::size_t n, std::size_t f) {
  codec::Reader r(bytes);
  const std::optional<std::uint32_t> count = r.read_u32();
  if (!count.has_value() || *count < n - f || *count > n) return std::nullopt;
  std::vector<sim::ProcessId> ids;
  ids.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    const std::optional<std::uint32_t> id = r.read_u32();
    if (!id.has_value() || *id >= n) return std::nullopt;
    if (!ids.empty() && static_cast<sim::ProcessId>(*id) <= ids.back()) {
      return std::nullopt;
    }
    ids.push_back(static_cast<sim::ProcessId>(*id));
  }
  if (!r.exhausted()) return std::nullopt;
  return ids;
}

rbc::Bytes encode_report(const std::vector<sim::ProcessId>& ids) {
  codec::Writer w;
  w.put_u32(static_cast<std::uint32_t>(ids.size()));
  for (const sim::ProcessId id : ids) {
    w.put_u32(static_cast<std::uint32_t>(id));
  }
  return w.take();
}

}  // namespace

ByzCCProcess::ByzCCProcess(const core::CCConfig& cfg, geo::Vec input,
                           core::TraceCollector* trace, Options options)
    : cfg_(cfg),
      t_end_(cfg.t_end()),
      input_(std::move(input)),
      trace_(trace),
      options_(options) {
  CHC_CHECK(cfg_.n >= 1 && cfg_.f < cfg_.n, "implausible (n, f)");
  CHC_CHECK(input_.dim() == cfg_.d, "input dimension mismatch");
  CHC_CHECK(cfg_.fault_model == core::FaultModel::kCrashIncorrectInputs,
            "BCC always distrusts faulty inputs");
  CHC_CHECK(cfg_.round0 == core::Round0Policy::kStableVector,
            "BCC has no naive round-0 ablation");
}

std::uint64_t ByzCCProcess::rejected() const {
  return rejected_semantic_ + (cast_ != nullptr ? cast_->rejected() : 0);
}

void ByzCCProcess::on_start(sim::Context& ctx) {
  rbc::SlotBroadcast::Options opts;
  opts.max_slot = static_cast<std::uint32_t>(t_end_);
  opts.allow_below_bound = options_.allow_below_bound;
  cast_ = std::make_unique<rbc::SlotBroadcast>(
      cfg_.n, cfg_.f, ctx.self(),
      [this](sim::Context& c, sim::ProcessId origin, std::uint32_t slot,
             const rbc::Bytes& bytes) { on_deliver(c, origin, slot, bytes); },
      opts);
  cast_->broadcast(ctx, 0, codec::encode(input_));
}

void ByzCCProcess::on_message(sim::Context& ctx, const sim::Message& msg) {
  // Unknown tags are Byzantine noise, not a routing bug: count and shed.
  if (cast_ == nullptr || !rbc::SlotBroadcast::handles(msg.tag)) {
    ++rejected_semantic_;
    return;
  }
  cast_->on_message(ctx, msg);
  advance(ctx);
}

void ByzCCProcess::on_deliver(sim::Context& ctx, sim::ProcessId origin,
                              std::uint32_t slot, const rbc::Bytes& bytes) {
  if (slot == 0) {
    std::optional<geo::Vec> v = decode_input(bytes, cfg_.d);
    if (!v.has_value()) {
      bad_inputs_.insert(origin);
      ++rejected_semantic_;
      return;
    }
    inputs_.emplace(origin, std::move(*v));
    return;
  }
  // Own reports mirror states this process already computed; re-verifying
  // them would double-record.
  if (origin == ctx.self()) return;
  const std::uint32_t r = slot - 1;  // report for state h_origin[r]
  std::optional<std::vector<sim::ProcessId>> ids =
      decode_report(bytes, cfg_.n, cfg_.f);
  if (!ids.has_value()) {
    invalid_.insert({origin, r});
    ++rejected_semantic_;
    return;
  }
  pending_.emplace(StateKey{origin, r}, std::move(*ids));
}

void ByzCCProcess::advance(sim::Context& ctx) {
  bool progress = true;
  while (progress) {
    progress = verify_states();
    if (step_self(ctx)) progress = true;
  }
}

void ByzCCProcess::mark_state(sim::ProcessId j, std::uint32_t r,
                              geo::PolytopeHandle h) {
  states_[r].emplace(j, std::move(h));
  order_[r].push_back(j);
}

/// One pass over the pending claims, resolving every claim whose
/// dependencies are settled. Iteration order is the sorted StateKey order
/// and resolution is purely a function of delivered data, so the verified
/// set — and therefore everything downstream — is deterministic.
bool ByzCCProcess::verify_states() {
  bool any = false;
  for (auto it = pending_.begin(); it != pending_.end();) {
    const auto& [key, ids] = *it;
    if (try_verify(key.first, key.second, ids)) {
      it = pending_.erase(it);
      any = true;
    } else {
      ++it;
    }
  }
  return any;
}

/// Attempts to recompute origin j's claimed round-r state. Returns true
/// when the claim is *resolved* (verified or proven invalid), false while
/// dependencies are still missing.
bool ByzCCProcess::try_verify(sim::ProcessId j, std::uint32_t r,
                              const std::vector<sim::ProcessId>& ids) {
  if (states_.count(r) != 0 && states_[r].count(j) != 0) return true;
  if (r == 0) {
    std::vector<geo::Vec> values;
    values.reserve(ids.size());
    for (const sim::ProcessId id : ids) {
      if (bad_inputs_.count(id) != 0) {
        invalid_.insert({j, r});
        return true;
      }
      const auto vit = inputs_.find(id);
      if (vit == inputs_.end()) return false;  // await delivery (totality)
      values.push_back(vit->second);
    }
    geo::PolytopeHandle gamma = geo::intersection_of_subset_hulls_interned(
        values, cfg_.round0_drop(), cfg_.rel_tol);
    if (gamma->is_empty()) {
      // An honest process halts on an empty Γ and reports nothing; a claim
      // over a Γ-empty multiset is only ever Byzantine.
      invalid_.insert({j, r});
      return true;
    }
    mark_state(j, r, std::move(gamma));
    return true;
  }
  std::vector<geo::PolytopeHandle> prev;
  prev.reserve(ids.size());
  const auto& below = states_[r - 1];
  for (const sim::ProcessId id : ids) {
    if (invalid_.count({id, r - 1}) != 0) {
      invalid_.insert({j, r});
      return true;
    }
    const auto pit = below.find(id);
    if (pit == below.end()) return false;
    prev.push_back(pit->second);
  }
  mark_state(j, r, geo::equal_weight_combination_interned(prev, cfg_.rel_tol));
  return true;
}

void ByzCCProcess::broadcast_report(sim::Context& ctx, std::uint32_t slot,
                                    const std::vector<sim::ProcessId>& ids) {
  cast_->broadcast(ctx, slot, encode_report(ids));
}

/// Own protocol progression (Algorithm CC's shape over verified data).
/// Performs at most one step; advance() loops it to a fixpoint.
bool ByzCCProcess::step_self(sim::Context& ctx) {
  if (round0_failed_ || decided_) return false;
  const std::size_t quorum = cfg_.n - cfg_.f;
  const sim::ProcessId self = ctx.self();

  if (!x_fixed_) {
    if (inputs_.size() < quorum) return false;
    x_fixed_ = true;
    // X_i: every input delivered so far (>= n - f of them), in id order.
    std::vector<sim::ProcessId> x;
    std::vector<geo::Vec> values;
    dsm::StableVectorResult view;
    for (const auto& [id, v] : inputs_) {
      x.push_back(id);
      values.push_back(v);
      view.emplace_back(id, v);
    }
    geo::PolytopeHandle gamma = geo::intersection_of_subset_hulls_interned(
        values, cfg_.round0_drop(), cfg_.rel_tol);
    if (gamma->is_empty()) {
      // Below the (d+2)f + 1 nonemptiness bound (arXiv 1302.2543): halt.
      round0_failed_ = true;
      if (trace_ != nullptr) {
        trace_->record_round0_empty(self, view, ctx.now());
      }
      return true;
    }
    h_ = std::move(gamma);
    if (trace_ != nullptr) trace_->record_round0(self, view, *h_, ctx.now());
    mark_state(self, 0, h_);
    broadcast_report(ctx, 1, x);
    round_ = 1;
    if (trace_ != nullptr) {
      trace_->tracer().emit_with([&] {
        obs::TraceEvent e;
        e.kind = obs::EventKind::kRoundStart;
        e.t = ctx.now();
        e.p = self;
        e.round = round_;
        return e;
      });
    }
    return true;
  }

  if (round_ < 1 || round_ > t_end_) return false;
  const std::uint32_t prev_round = static_cast<std::uint32_t>(round_ - 1);
  const auto oit = order_.find(prev_round);
  if (oit == order_.end()) return false;
  // M_i[round]: own state plus the first n - f - 1 *other* verified
  // round-(round-1) states, in verification order. Sorted for the
  // combination so receivers recomputing from the report (sorted ids)
  // reproduce bit-identical geometry.
  std::vector<sim::ProcessId> m;
  m.push_back(self);
  for (const sim::ProcessId id : oit->second) {
    if (m.size() >= quorum) break;
    if (id != self) m.push_back(id);
  }
  if (m.size() < quorum) return false;
  std::sort(m.begin(), m.end());
  std::vector<geo::PolytopeHandle> prev;
  prev.reserve(m.size());
  for (const sim::ProcessId id : m) prev.push_back(states_[prev_round][id]);
  h_ = geo::equal_weight_combination_interned(prev, cfg_.rel_tol);
  if (trace_ != nullptr) {
    trace_->record_round(self, round_,
                         std::set<sim::ProcessId>(m.begin(), m.end()), *h_,
                         ctx.now());
  }
  mark_state(self, static_cast<std::uint32_t>(round_), h_);
  if (round_ == t_end_) {
    decided_ = true;
    decision_ = *h_;
    if (trace_ != nullptr) {
      trace_->record_decision(self, *decision_, round_, ctx.now());
    }
    return true;
  }
  broadcast_report(ctx, static_cast<std::uint32_t>(round_) + 1, m);
  ++round_;
  if (trace_ != nullptr) {
    trace_->tracer().emit_with([&] {
      obs::TraceEvent e;
      e.kind = obs::EventKind::kRoundStart;
      e.t = ctx.now();
      e.p = self;
      e.round = round_;
      return e;
    });
  }
  return true;
}

}  // namespace chc::bcc
