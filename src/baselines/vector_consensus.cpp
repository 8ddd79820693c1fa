#include "baselines/vector_consensus.hpp"

#include <set>

#include "common/check.hpp"
#include "geometry/ops.hpp"
#include "geometry/polytope.hpp"

namespace chc::baselines {

VectorConsensusProcess::VectorConsensusProcess(const core::CCConfig& cfg,
                                               geo::Vec input)
    : cfg_(cfg), t_end_(cfg.t_end()), input_(std::move(input)) {
  CHC_CHECK(input_.dim() == cfg_.d, "input dimension must match config");
}

void VectorConsensusProcess::on_start(sim::Context& ctx) {
  sv_ = std::make_unique<dsm::StableVector>(cfg_.n, cfg_.f, ctx.self());
  sv_->start(ctx, input_,
             [this](sim::Context& c, const dsm::StableVectorResult& view) {
               on_round0(c, view);
             });
}

void VectorConsensusProcess::on_round0(sim::Context& ctx,
                                       const dsm::StableVectorResult& view) {
  round0_done_ = true;
  std::vector<geo::Vec> points;
  points.reserve(view.size());
  for (const auto& [origin, x] : view) points.push_back(x);
  const geo::Polytope safe =
      geo::intersection_of_subset_hulls(points, cfg_.f, cfg_.rel_tol);
  if (safe.is_empty()) {
    round0_failed_ = true;
    return;
  }
  p_ = safe.vertex_centroid();  // deterministic valid starting point
  current_round_ = 1;
  inbox_[1].emplace(ctx.self(), p_);
  ctx.broadcast_others(kTagPointRound, PointMsg{1, p_});
  maybe_complete_round(ctx);
}

void VectorConsensusProcess::maybe_complete_round(sim::Context& ctx) {
  while (current_round_ >= 1 && !decision_.has_value()) {
    auto& msgs = inbox_[current_round_];
    if (msgs.size() < cfg_.n - cfg_.f) return;
    geo::Vec mean(cfg_.d, 0.0);
    for (const auto& [from, q] : msgs) mean += q;
    p_ = mean * (1.0 / static_cast<double>(msgs.size()));
    inbox_.erase(current_round_);
    if (current_round_ >= t_end_) {
      decision_ = p_;
      return;
    }
    ++current_round_;
    inbox_[current_round_].emplace(ctx.self(), p_);
    ctx.broadcast_others(kTagPointRound, PointMsg{current_round_, p_});
  }
}

void VectorConsensusProcess::on_message(sim::Context& ctx,
                                        const sim::Message& msg) {
  if (dsm::StableVector::handles(msg.tag)) {
    if (sv_ != nullptr) sv_->on_message(ctx, msg);
    return;
  }
  CHC_CHECK(msg.tag == kTagPointRound, "unexpected tag for vector consensus");
  const auto& pm = std::any_cast<const PointMsg&>(*msg.payload);
  if (decision_.has_value()) return;
  inbox_[pm.round].emplace(msg.from, pm.p);
  if (round0_done_ && !round0_failed_ && pm.round == current_round_) {
    maybe_complete_round(ctx);
  }
}

void VectorConsensusProcess::on_timer(sim::Context& ctx, int token) {
  if (sv_ != nullptr) sv_->on_timer(ctx, token);
}

VectorConsensusOutput run_vector_consensus(const core::RunConfig& rc) {
  const core::CCConfig& cc = rc.cc;
  VectorConsensusOutput out;

  const core::Workload w =
      core::make_workload(cc.n, cc.f, cc.d, rc.pattern, rc.seed);
  core::CCConfig cfg = cc;
  cfg.input_magnitude = std::max(cc.input_magnitude, w.correct_magnitude);

  sim::Simulation sim(cc.n, rc.seed,
                      core::make_delay_model(rc.delay, w.faulty, cc.n),
                      core::make_crash_schedule(w, rc.crash_style, rc.seed));
  std::vector<VectorConsensusProcess*> procs;
  for (sim::ProcessId p = 0; p < cc.n; ++p) {
    auto proc = std::make_unique<VectorConsensusProcess>(cfg, w.inputs[p]);
    procs.push_back(proc.get());
    sim.add_process(std::move(proc));
  }
  const auto rr = sim.run();
  out.stats = rr.stats;

  const std::set<sim::ProcessId> faulty(w.faulty.begin(), w.faulty.end());
  out.decisions.resize(cc.n);
  for (sim::ProcessId p = 0; p < cc.n; ++p) {
    out.decisions[p] = procs[p]->decision();
    if (faulty.count(p) == 0) {
      out.correct.push_back(p);
      out.correct_inputs.push_back(w.inputs[p]);
    }
  }

  out.all_decided = true;
  std::vector<geo::Vec> decided;
  for (sim::ProcessId p : out.correct) {
    if (!out.decisions[p].has_value()) {
      out.all_decided = false;
    } else {
      decided.push_back(*out.decisions[p]);
    }
  }
  if (decided.empty()) return out;

  const geo::Polytope hull = geo::Polytope::from_points(out.correct_inputs);
  out.validity = true;
  for (const auto& q : decided) {
    if (!hull.contains(q, 1e-6)) out.validity = false;
  }
  out.max_pairwise_dist = 0.0;
  for (std::size_t a = 0; a < decided.size(); ++a) {
    for (std::size_t b = a + 1; b < decided.size(); ++b) {
      out.max_pairwise_dist =
          std::max(out.max_pairwise_dist, decided[a].dist(decided[b]));
    }
  }
  out.agreement = out.max_pairwise_dist < cfg.eps + 1e-6;
  return out;
}

}  // namespace chc::baselines
