#include "core/lossy.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "common/check.hpp"
#include "core/process_cc.hpp"
#include "geometry/intern.hpp"
#include "net/faulty_link.hpp"

namespace chc::core {

namespace {

obs::HeaderChannelOverride to_header_override(sim::ProcessId from,
                                              sim::ProcessId to,
                                              const net::ChannelPolicy& c) {
  obs::HeaderChannelOverride o;
  o.from = from;
  o.to = to;
  o.drop = c.drop_rate;
  o.dup = c.dup_rate;
  o.reorder = c.reorder_rate;
  return o;
}

std::vector<obs::HeaderChannelOverride> to_header_overrides(
    const net::NetworkPolicy& policy) {
  std::vector<obs::HeaderChannelOverride> out;
  out.reserve(policy.overrides.size());
  for (const auto& [channel, faults] : policy.overrides) {
    out.push_back(to_header_override(channel.first, channel.second, faults));
  }
  return out;
}

}  // namespace

obs::TraceHeader make_trace_header(const LossyRunConfig& lc,
                                   const CCConfig& effective,
                                   const Workload& workload) {
  const RunConfig& rc = lc.base;
  obs::TraceHeader h = config_header(effective);
  h.pattern = static_cast<int>(rc.pattern);
  h.crash_style = static_cast<int>(rc.crash_style);
  h.delay = static_cast<int>(rc.delay);
  h.seed = rc.seed;
  h.drop = lc.policy.link.drop_rate;
  h.dup = lc.policy.link.dup_rate;
  h.reorder = lc.policy.link.reorder_rate;
  h.reliable = lc.reliable;
  h.rto_max = lc.rel.rto_max;
  h.max_retries = lc.rel.max_retries;
  h.max_events = lc.max_events;
  h.overrides = to_header_overrides(lc.policy);
  for (const net::PolicySchedule::Phase& ph : lc.schedule.phases()) {
    obs::HeaderPolicyPhase hp;
    hp.at = ph.at;
    hp.drop = ph.policy.link.drop_rate;
    hp.dup = ph.policy.link.dup_rate;
    hp.reorder = ph.policy.link.reorder_rate;
    hp.overrides = to_header_overrides(ph.policy);
    h.phases.push_back(std::move(hp));
  }
  if (lc.crash_plans.has_value()) {
    for (const auto& [p, plan] : lc.crash_plans->plans()) {
      obs::HeaderCrashPlan cp;
      cp.p = p;
      if (plan.at_time.has_value()) {
        cp.has_at = true;
        cp.at = *plan.at_time;
      }
      if (plan.after_sends.has_value()) {
        cp.has_after = true;
        cp.after = *plan.after_sends;
      }
      if (plan.recover_at.has_value()) {
        cp.has_recover = true;
        cp.recover = *plan.recover_at;
      }
      h.crash_plans.push_back(cp);
    }
  }
  for (const sim::StormWindow& w : lc.storms) {
    h.storms.push_back({w.t0, w.t1, w.factor});
  }
  h.faulty.assign(workload.faulty.begin(), workload.faulty.end());
  h.inputs.reserve(workload.inputs.size());
  for (const geo::Vec& x : workload.inputs) h.inputs.push_back(x.coords());
  return h;
}

LossyRunOutput simulate(const LossyRunConfig& lc, const Workload& workload,
                        const sim::CrashSchedule& crashes,
                        const ProcessBuilder& build,
                        const ProtocolMetrics& protocol_metrics) {
  const RunConfig& rc = lc.base;
  const std::size_t n = rc.cc.n;
  LossyRunOutput out;
  out.workload = workload;

  std::unique_ptr<sim::DelayModel> delay =
      make_delay_model(rc.delay, workload.faulty, n);
  if (!lc.storms.empty()) {
    delay = std::make_unique<sim::StormDelay>(std::move(delay), lc.storms);
  }

  sim::Simulation sim(n, rc.seed, std::move(delay), crashes);
  if (!lc.schedule.empty()) {
    sim.set_fault_model(std::make_unique<net::FaultyLinkModel>(lc.schedule));
  } else if (lc.policy.enabled()) {
    sim.set_fault_model(std::make_unique<net::FaultyLinkModel>(lc.policy));
  }
  sim.set_tracer(lc.tracer);
  sim.set_metrics(lc.metrics);

  out.trace = std::make_unique<TraceCollector>(n, lc.tracer);
  std::vector<net::ReliableChannel*> shims(n, nullptr);
  net::ShimStats retired_shims;  // harvested from pre-recovery incarnations
  const auto assemble = [&](sim::ProcessId p, std::uint32_t epoch)
      -> std::unique_ptr<sim::Process> {
    std::unique_ptr<sim::Process> proc = build(p, *out.trace);
    if (!lc.reliable) return proc;
    auto shim = std::make_unique<net::ReliableChannel>(std::move(proc), lc.rel,
                                                       lc.tracer, epoch);
    shims[p] = shim.get();
    return shim;
  };
  for (sim::ProcessId p = 0; p < n; ++p) sim.add_process(assemble(p, 0));
  if (crashes.any_recovery()) {
    // Crash-recover with state loss: the replacement incarnation is built
    // exactly like the original (a restarted process re-derives everything
    // from its durable input), except its shim starts at the new epoch so
    // peers detect the restart. The retired incarnation's shim counters are
    // folded into the aggregate before it is destroyed.
    sim.set_process_factory([&](sim::ProcessId p, std::size_t incarnation,
                                std::unique_ptr<sim::Process> /*retired*/) {
      if (shims[p] != nullptr) retired_shims += shims[p]->stats();
      shims[p] = nullptr;
      out.trace->reset_process(p);
      return assemble(p, static_cast<std::uint32_t>(incarnation));
    });
  }

  const sim::RunResult rr = sim.run(lc.max_events);
  out.quiescent = rr.quiescent;
  out.stats = rr.stats;
  out.shims = retired_shims;
  double max_backoff = 0.0;
  for (const net::ReliableChannel* shim : shims) {
    if (shim == nullptr) continue;
    out.shims += shim->stats();
    max_backoff = std::max(max_backoff, shim->current_backoff());
  }
  // The simulator cannot distinguish a retransmission from a fresh send;
  // fold the shims' accounting into SimStats so one struct tells the whole
  // network story.
  out.stats.retransmits = out.shims.retransmits;
  out.stats.retransmit_by_tag = out.shims.retransmit_by_tag;

  if (lc.tracer != nullptr && lc.tracer->enabled()) {
    obs::TraceFooter footer;
    footer.quiescent = out.quiescent;
    footer.decided = out.trace->decided().size();
    lc.tracer->line(to_jsonl(footer));
  }
  if (lc.metrics != nullptr) {
    obs::Registry& m = *lc.metrics;
    m.counter("sim.messages_sent").inc(out.stats.messages_sent);
    m.counter("sim.messages_delivered").inc(out.stats.messages_delivered);
    m.counter("net.dropped").inc(out.stats.net_dropped);
    m.counter("net.duplicated").inc(out.stats.net_duplicated);
    m.counter("net.retransmits").inc(out.stats.retransmits);
    m.counter("sim.recoveries").inc(out.stats.recoveries);
    if (lc.reliable) {
      m.counter("net.rel.data_sent").inc(out.shims.data_sent);
      m.counter("net.rel.retransmits").inc(out.shims.retransmits);
      m.counter("net.rel.acks_sent").inc(out.shims.acks_sent);
      m.counter("net.rel.delivered").inc(out.shims.delivered);
      m.counter("net.rel.dups_suppressed").inc(out.shims.dups_suppressed);
      m.counter("net.rel.buffered_out_of_order")
          .inc(out.shims.buffered_out_of_order);
      m.counter("net.rel.sends_abandoned").inc(out.shims.sends_abandoned);
      m.counter("net.rel.channels_abandoned")
          .inc(out.shims.channels_abandoned);
      m.counter("net.rel.stale_epoch_dropped")
          .inc(out.shims.stale_epoch_dropped);
      m.counter("net.rel.channel_resets").inc(out.shims.channel_resets);
      m.gauge("net.rel.max_current_backoff").set(max_backoff);
    }
    m.gauge("sim.end_time").set(out.stats.end_time);
    protocol_metrics(m, out);
  }

  const std::set<sim::ProcessId> faulty(workload.faulty.begin(),
                                        workload.faulty.end());
  for (sim::ProcessId p = 0; p < n; ++p) {
    if (faulty.count(p) == 0) {
      out.correct.push_back(p);
      out.correct_inputs.push_back(workload.inputs[p]);
    }
  }
  return out;
}

LossyRunOutput run_cc_lossy_custom(const LossyRunConfig& lc,
                                   const Workload& workload) {
  const RunConfig& rc = lc.base;
  CHC_CHECK(workload.inputs.size() == rc.cc.n, "one input per process");
  CHC_CHECK(workload.faulty.size() <= rc.cc.f,
            "faulty set larger than configured f");

  // The termination bound (eq. 19) assumes the configured magnitude bounds
  // the correct inputs; take the larger of the two so the guarantee holds.
  CCConfig cfg = rc.cc;
  cfg.input_magnitude =
      std::max(rc.cc.input_magnitude, workload.correct_magnitude);

  if (lc.tracer != nullptr && lc.tracer->enabled()) {
    lc.tracer->line(to_jsonl(make_trace_header(lc, cfg, workload)));
  }

  const sim::CrashSchedule crashes =
      lc.crash_plans.has_value()
          ? *lc.crash_plans
          : make_crash_schedule(workload, rc.crash_style, rc.seed);
  LossyRunOutput out = simulate(
      lc, workload, crashes,
      [&](sim::ProcessId p,
          TraceCollector& trace) -> std::unique_ptr<sim::Process> {
        auto cc = std::make_unique<CCProcess>(cfg, workload.inputs[p], &trace);
        if (crashes.any_recovery()) cc->allow_sender_restart();
        return cc;
      },
      [](obs::Registry& m, const LossyRunOutput& o) {
        m.counter("cc.decided").inc(o.trace->decided().size());
        m.gauge("cc.max_round").set(static_cast<double>(o.trace->max_round()));
        // Geometry-kernel health: the combination memo's hit rate.
        // Process-wide totals (gauges, not deltas).
        const geo::InternStats is = geo::intern_stats();
        m.gauge("geo.combo.hits").set(static_cast<double>(is.combo_hits));
        m.gauge("geo.combo.misses").set(static_cast<double>(is.combo_misses));
      });

  const std::vector<geo::Vec>& validity_inputs =
      (cfg.fault_model == FaultModel::kCrashCorrectInputs)
          ? workload.inputs
          : out.correct_inputs;
  out.cert = certify(*out.trace, out.correct, validity_inputs, cfg);
  return out;
}

LossyRunOutput run_cc_lossy(const LossyRunConfig& lc) {
  const RunConfig& rc = lc.base;
  const Workload workload = make_workload(
      rc.cc.n, rc.cc.f, rc.cc.d, rc.pattern, rc.seed,
      rc.cc.fault_model == FaultModel::kCrashIncorrectInputs);
  return run_cc_lossy_custom(lc, workload);
}

}  // namespace chc::core
