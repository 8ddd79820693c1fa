#include "bcc/harness.hpp"

#include <algorithm>
#include <utility>

#include "bcc/process.hpp"
#include "common/check.hpp"
#include "sim/adversary.hpp"

namespace chc::bcc {

obs::TraceHeader make_byz_trace_header(const ByzRunConfig& bc,
                                       const core::CCConfig& effective,
                                       const core::Workload& workload) {
  obs::TraceHeader h = core::make_trace_header(bc.lossy, effective, workload);
  h.protocol = "bcc";
  for (const auto& [p, spec] : bc.behaviors) {
    obs::HeaderByz b;
    b.p = p;
    b.kind = static_cast<int>(spec.kind);
    b.param = spec.param;
    h.byz.push_back(b);
  }
  return h;
}

core::LossyRunOutput run_bcc_custom(const ByzRunConfig& bc,
                                    const core::Workload& workload) {
  const core::RunConfig& rc = bc.lossy.base;
  CHC_CHECK(workload.inputs.size() == rc.cc.n, "one input per process");
  CHC_CHECK(workload.faulty.size() == bc.behaviors.size() &&
                std::all_of(workload.faulty.begin(), workload.faulty.end(),
                            [&](sim::ProcessId p) {
                              return bc.behaviors.count(p) != 0;
                            }),
            "workload faulty set must equal the behavior map's keys");
  CHC_CHECK(bc.behaviors.size() <= rc.cc.f,
            "Byzantine set larger than configured f");
  CHC_CHECK(bc.allow_below_bound || rc.cc.n >= 3 * rc.cc.f + 1,
            "BCC needs n >= 3f + 1 (set allow_below_bound to experiment)");

  core::CCConfig cfg = rc.cc;
  cfg.input_magnitude =
      std::max(rc.cc.input_magnitude, workload.correct_magnitude);

  const obs::TraceHeader header = make_byz_trace_header(bc, cfg, workload);
  if (bc.lossy.tracer != nullptr && bc.lossy.tracer->enabled()) {
    bc.lossy.tracer->line(to_jsonl(header));
  }

  // Byzantine processes do not crash — crash_style is deliberately not
  // consulted. Explicit plans (mixed-fault runs) must be crash-stop.
  const sim::CrashSchedule crashes = bc.lossy.crash_plans.has_value()
                                         ? *bc.lossy.crash_plans
                                         : sim::CrashSchedule{};
  CHC_CHECK(!crashes.any_recovery(),
            "BCC does not model crash-recover incarnations");

  ByzCCProcess::Options popts;
  popts.allow_below_bound = bc.allow_below_bound;
  std::vector<const ByzCCProcess*> honest(cfg.n, nullptr);
  core::LossyRunOutput out = core::simulate(
      bc.lossy, workload, crashes,
      [&](sim::ProcessId p,
          core::TraceCollector& trace) -> std::unique_ptr<sim::Process> {
        const auto bit = bc.behaviors.find(p);
        if (bit == bc.behaviors.end()) {
          auto proc = std::make_unique<ByzCCProcess>(cfg, workload.inputs[p],
                                                     &trace, popts);
          honest[p] = proc.get();
          return proc;
        }
        // Byzantine: honest machine + send interceptor, no trace of its own.
        auto inner = std::make_unique<ByzCCProcess>(cfg, workload.inputs[p],
                                                    nullptr, popts);
        return std::make_unique<sim::AdversarialProcess>(
            std::move(inner),
            make_behavior(bit->second, cfg.n, cfg.d, p, bc.lossy.tracer));
      },
      [&](obs::Registry& m, const core::LossyRunOutput& o) {
        std::uint64_t rejected = 0;
        for (const ByzCCProcess* h : honest) {
          if (h != nullptr) rejected += h->rejected();
        }
        m.counter("bcc.decided").inc(o.trace->decided().size());
        m.counter("bcc.rejected").inc(rejected);
        m.gauge("bcc.max_round").set(static_cast<double>(o.trace->max_round()));
      });

  // The same judge as every crash run; the "bcc" protocol in the header
  // leaves the crash-specific I_Z floor out, as the checker does.
  out.cert =
      core::certify(*out.trace, out.correct, out.correct_inputs, header);
  return out;
}

core::LossyRunOutput run_bcc(const ByzRunConfig& bc) {
  std::vector<sim::ProcessId> faulty;
  faulty.reserve(bc.behaviors.size());
  for (const auto& [p, spec] : bc.behaviors) faulty.push_back(p);
  // The Byzantine set is explicit; each Byzantine process's honest state
  // machine still needs an input, and it gets an outlier.
  const core::Workload workload =
      core::make_workload(bc.lossy.base.cc.n, bc.lossy.base.cc.d,
                          bc.lossy.base.pattern, bc.lossy.base.seed, faulty);
  return run_bcc_custom(bc, workload);
}

}  // namespace chc::bcc
