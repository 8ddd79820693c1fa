#include "layers.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "common/check.hpp"
#include "core/harness.hpp"
#include "core/workload.hpp"
#include "net/faulty_link.hpp"
#include "net/reliable_channel.hpp"
#include "sim/delay.hpp"
#include "sim/simulation.hpp"

namespace chc::perfbench {

void LayerClock::leave() {
  CHC_CHECK(!stack_.empty(), "LayerClock::leave without enter");
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = now_ns() - f.start;
  self_ns_[idx(f.layer)] += dur - f.child;
  if (!stack_.empty()) stack_.back().child += dur;
  const bool outermost =
      std::none_of(stack_.begin(), stack_.end(),
                   [&](const Frame& o) { return o.layer == f.layer; });
  if (outermost) incl_ns_[idx(f.layer)] += dur;
}

TimedProcess::TimedProcess(std::unique_ptr<sim::Process> shim, Probe& probe)
    : inner_(std::move(shim)), probe_(probe), out_(Layer::kSimSend) {}

TimedProcess::TimedProcess(std::unique_ptr<core::CCProcess> cc, Probe& probe,
                           bool shimmed)
    : cc_(cc.get()),
      probe_(probe),
      out_(shimmed ? Layer::kNet : Layer::kSimSend) {
  inner_ = std::move(cc);
}

template <typename F>
void TimedProcess::around(sim::Context& ctx, Layer layer, F&& call) {
  {
    LayerClock::Scope s(probe_.clock, layer);
    TimedContext timed(ctx, probe_.clock, out_,
                       cc_ != nullptr ? &probe_.dsm_msgs : nullptr);
    call(timed);
  }
  if (cc_ != nullptr && cc_->decision().has_value()) {
    double& at = probe_.decide_at.at(ctx.self());
    if (at < 0.0) at = ctx.now();
  }
}

namespace {

Layer cc_layer(int tag) {
  return (tag >= 100 && tag <= 105) ? Layer::kDsm : Layer::kRound;
}

}  // namespace

void TimedProcess::on_start(sim::Context& ctx) {
  // Starting CC starts the stable vector (round 0).
  around(ctx, cc_ ? Layer::kDsm : Layer::kNet,
         [&](sim::Context& c) { inner_->on_start(c); });
}

void TimedProcess::on_message(sim::Context& ctx, const sim::Message& msg) {
  around(ctx, cc_ ? cc_layer(msg.tag) : Layer::kNet,
         [&](sim::Context& c) { inner_->on_message(c, msg); });
}

void TimedProcess::on_timer(sim::Context& ctx, int token) {
  if (cc_ == nullptr && token == net::kRelTickToken) ++probe_.shim_timer_calls;
  around(ctx, cc_ ? Layer::kDsm : Layer::kNet,
         [&](sim::Context& c) { inner_->on_timer(c, token); });
}

core::LossyRunOutput run_traced(const core::LossyRunConfig& lc,
                                const core::Workload& workload, Probe& probe) {
  // Same assembly as core::run_cc_lossy_custom (src/core/lossy.cpp), minus
  // the metrics registry, with the decorators inserted.
  const core::RunConfig& rc = lc.base;
  CHC_CHECK(workload.inputs.size() == rc.cc.n, "one input per process");

  core::LossyRunOutput out;
  out.workload = workload;
  core::CCConfig cfg = rc.cc;
  cfg.input_magnitude =
      std::max(rc.cc.input_magnitude, workload.correct_magnitude);

  const bool tracing = lc.tracer != nullptr && lc.tracer->enabled();
  if (tracing) {
    lc.tracer->line(to_jsonl(core::make_trace_header(lc, cfg, workload)));
  }

  const sim::CrashSchedule crashes =
      lc.crash_plans.has_value()
          ? *lc.crash_plans
          : core::make_crash_schedule(workload, rc.crash_style, rc.seed);
  std::unique_ptr<sim::DelayModel> delay =
      core::make_delay_model(rc.delay, workload.faulty, cfg.n);
  if (!lc.storms.empty()) {
    delay = std::make_unique<sim::StormDelay>(std::move(delay), lc.storms);
  }

  sim::Simulation sim(cfg.n, rc.seed, std::move(delay), crashes);
  if (!lc.schedule.empty()) {
    sim.set_fault_model(std::make_unique<net::FaultyLinkModel>(lc.schedule));
  } else if (lc.policy.enabled()) {
    sim.set_fault_model(std::make_unique<net::FaultyLinkModel>(lc.policy));
  }
  sim.set_tracer(lc.tracer);

  out.trace = std::make_unique<core::TraceCollector>(cfg.n, lc.tracer);
  probe.decide_at.assign(cfg.n, -1.0);
  std::vector<net::ReliableChannel*> shims(cfg.n, nullptr);
  net::ShimStats retired_shims;
  auto build = [&](sim::ProcessId p, bool restartable,
                   std::uint32_t epoch) -> std::unique_ptr<sim::Process> {
    auto cc = std::make_unique<core::CCProcess>(cfg, workload.inputs[p],
                                                out.trace.get());
    if (restartable) cc->allow_sender_restart();
    auto timed_cc =
        std::make_unique<TimedProcess>(std::move(cc), probe, lc.reliable);
    if (!lc.reliable) return timed_cc;
    auto shim = std::make_unique<net::ReliableChannel>(
        std::move(timed_cc), lc.rel, lc.tracer, epoch);
    shims[p] = shim.get();
    return std::make_unique<TimedProcess>(std::move(shim), probe);
  };
  for (sim::ProcessId p = 0; p < cfg.n; ++p) {
    sim.add_process(build(p, crashes.any_recovery(), 0));
  }
  if (crashes.any_recovery()) {
    sim.set_process_factory([&](sim::ProcessId p, std::size_t incarnation,
                                std::unique_ptr<sim::Process> retired)
                                -> std::unique_ptr<sim::Process> {
      if (shims[p] != nullptr) retired_shims += shims[p]->stats();
      shims[p] = nullptr;
      retired.reset();
      out.trace->reset_process(p);
      probe.decide_at.at(p) = -1.0;
      return build(p, true, static_cast<std::uint32_t>(incarnation));
    });
  }

  sim::RunResult rr;
  {
    LayerClock::Scope s(probe.clock, Layer::kSim);
    rr = sim.run(lc.max_events);
  }
  out.quiescent = rr.quiescent;
  out.stats = rr.stats;
  out.shims = retired_shims;
  for (const net::ReliableChannel* shim : shims) {
    if (shim != nullptr) out.shims += shim->stats();
  }
  out.stats.retransmits = out.shims.retransmits;
  out.stats.retransmit_by_tag = out.shims.retransmit_by_tag;

  if (tracing) {
    obs::TraceFooter footer;
    footer.quiescent = out.quiescent;
    footer.decided = out.trace->decided().size();
    lc.tracer->line(to_jsonl(footer));
  }

  const std::set<sim::ProcessId> faulty(workload.faulty.begin(),
                                        workload.faulty.end());
  for (sim::ProcessId p = 0; p < cfg.n; ++p) {
    if (faulty.count(p) == 0) {
      out.correct.push_back(p);
      out.correct_inputs.push_back(workload.inputs[p]);
    }
  }
  const std::vector<geo::Vec>& validity_inputs =
      (cfg.fault_model == core::FaultModel::kCrashCorrectInputs)
          ? workload.inputs
          : out.correct_inputs;
  {
    LayerClock::Scope s(probe.clock, Layer::kCertify);
    out.cert = core::certify(*out.trace, out.correct, validity_inputs, cfg);
  }
  return out;
}

bool TimedTransport::send(transport::NodeId to,
                          const transport::WireFrame& frame) {
  ++probe_.frames_sent;
  probe_.bytes_sent += frame.payload.size();
  if (frame.kind == transport::FrameKind::kData &&
      probe_.captured.size() < probe_.capture_limit) {
    probe_.captured.push_back(frame);
  }
  const std::int64_t t0 = now_ns();
  const bool ok = inner_->send(to, frame);
  const std::int64_t dur = now_ns() - t0;
  probe_.send_ns += dur;
  if (probe_.in_handler) probe_.handler_ns -= dur;
  return ok;
}

std::size_t TimedTransport::poll(int timeout_ms, const Handler& h) {
  return inner_->poll(timeout_ms, [&](transport::NodeId from,
                                      transport::WireFrame frame) {
    ++probe_.frames_handled;
    probe_.in_handler = true;
    const std::int64_t t0 = now_ns();
    h(from, std::move(frame));
    probe_.handler_ns += now_ns() - t0;
    probe_.in_handler = false;
  });
}

}  // namespace chc::perfbench
