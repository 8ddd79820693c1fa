#include "core/trace.hpp"

#include <utility>

#include "common/check.hpp"

namespace chc::core {

namespace {

void copy_view(const dsm::StableVectorResult& view, obs::TraceEvent& e) {
  e.view.reserve(view.size());
  for (const auto& [origin, x] : view) {
    e.view.emplace_back(static_cast<obs::Pid>(origin), x);
  }
}

}  // namespace

obs::TraceHeader config_header(const CCConfig& cfg) {
  obs::TraceHeader h;
  h.n = cfg.n;
  h.f = cfg.f;
  h.d = cfg.d;
  h.eps = cfg.eps;
  h.input_magnitude = cfg.input_magnitude;
  h.rel_tol = cfg.rel_tol;
  h.round0_naive = cfg.round0 == Round0Policy::kNaiveCollect;
  h.correct_inputs_model = cfg.fault_model == FaultModel::kCrashCorrectInputs;
  h.t_end = cfg.t_end();
  return h;
}

void TraceCollector::record_round0(sim::ProcessId p,
                                   const dsm::StableVectorResult& view,
                                   const geo::Polytope& h0, sim::Time now) {
  auto& t = procs_.at(p).back();
  CHC_CHECK(!t.round0_view.has_value(), "round 0 recorded twice");
  t.round0_view = view;
  t.h0 = h0;
  tracer_->emit_with([&] {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kRound0;
    e.t = now;
    e.p = p;
    e.verts = h0.vertices();
    copy_view(view, e);
    return e;
  });
}

void TraceCollector::record_round0_empty(sim::ProcessId p,
                                         const dsm::StableVectorResult& view,
                                         sim::Time now) {
  auto& t = procs_.at(p).back();
  CHC_CHECK(!t.round0_view.has_value(), "round 0 recorded twice");
  t.round0_view = view;
  t.round0_empty = true;
  tracer_->emit_with([&] {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kRound0Empty;
    e.t = now;
    e.p = p;
    copy_view(view, e);
    return e;
  });
}

void TraceCollector::record_round(sim::ProcessId p, std::size_t t,
                                  std::set<sim::ProcessId> senders,
                                  const geo::Polytope& h, sim::Time now) {
  CHC_CHECK(t >= 1, "round index must be >= 1");
  auto& tr = procs_.at(p).back();
  CHC_CHECK(tr.senders.find(t) == tr.senders.end(), "round recorded twice");
  tracer_->emit_with([&] {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kRound;
    e.t = now;
    e.p = p;
    e.round = t;
    e.verts = h.vertices();
    e.senders.assign(senders.begin(), senders.end());
    return e;
  });
  tr.senders[t] = std::move(senders);
  tr.h[t] = h;
}

void TraceCollector::record_decision(sim::ProcessId p,
                                     const geo::Polytope& decision,
                                     std::size_t round, sim::Time now) {
  auto& t = procs_.at(p).back();
  CHC_CHECK(!t.decision.has_value(), "decision recorded twice");
  t.decision = decision;
  tracer_->emit_with([&] {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kDecide;
    e.t = now;
    e.p = p;
    e.round = round;
    e.verts = decision.vertices();
    return e;
  });
}

std::size_t TraceCollector::max_round() const {
  std::size_t m = 0;
  for (sim::ProcessId p = 0; p < n(); ++p) {
    const ProcessTrace& t = of(p);
    if (!t.h.empty()) m = std::max(m, t.h.rbegin()->first);
  }
  return m;
}

std::vector<sim::ProcessId> TraceCollector::decided() const {
  std::vector<sim::ProcessId> out;
  for (sim::ProcessId p = 0; p < n(); ++p) {
    if (of(p).decision.has_value()) out.push_back(p);
  }
  return out;
}

}  // namespace chc::core
