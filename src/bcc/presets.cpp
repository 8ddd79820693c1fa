#include "bcc/presets.hpp"

#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace chc::bcc {

namespace {

std::vector<ByzPreset> make_presets() {
  std::vector<ByzPreset> out;

  {
    ByzPreset p;
    p.name = "equivocate_d1";
    p.description =
        "n=4 f=1 d=1: the classic split-brain sender; reliable broadcast "
        "must converge every origin to one value (or none) and decide";
    p.n = 4, p.f = 1, p.d = 1;
    p.kind = BehaviorKind::kEquivocate;
    p.param = 1;
    out.push_back(std::move(p));
  }
  {
    ByzPreset p;
    p.name = "equivocate_d2";
    p.description =
        "n=5 f=1 d=2: equivocation in the plane, exactly at the "
        "(d+2)f + 1 vector-consensus bound";
    p.n = 5, p.f = 1, p.d = 2;
    p.kind = BehaviorKind::kEquivocate;
    out.push_back(std::move(p));
  }
  {
    ByzPreset p;
    p.name = "forge_outlier";
    p.description =
        "n=4 f=1 d=1: protocol-abiding liar broadcasting a far outlier "
        "input; the decided hull must stay inside the fault-free hull";
    p.n = 4, p.f = 1, p.d = 1;
    p.kind = BehaviorKind::kForgePoint;
    out.push_back(std::move(p));
  }
  {
    ByzPreset p;
    p.name = "silent_midcast";
    p.description =
        "n=7 f=2 d=1: two processes fall silent a few sends into their "
        "broadcasts (the Byzantine analogue of a mid-broadcast crash)";
    p.n = 7, p.f = 2, p.d = 1;
    p.kind = BehaviorKind::kSilent;
    p.param = 5;
    out.push_back(std::move(p));
  }
  {
    ByzPreset p;
    p.name = "malformed_flood";
    p.description =
        "n=4 f=1 d=1: every message from the faulty process is cycling "
        "garbage (bad types, tags, origins, slots, sizes, NaNs); correct "
        "processes must shed it all and decide among themselves";
    p.n = 4, p.f = 1, p.d = 1;
    p.kind = BehaviorKind::kMalformed;
    out.push_back(std::move(p));
  }
  {
    ByzPreset p;
    p.name = "rbc_stall_3f";
    p.description =
        "n=3 f=1 d=1 (n = 3f): the 2f+1 READY quorum needs every process "
        "including the silent one, so nothing is ever delivered — the "
        "documented failure mode below n = 3f + 1";
    p.n = 3, p.f = 1, p.d = 1;
    p.kind = BehaviorKind::kSilent;
    p.param = 0;
    p.expect = ByzExpectation::kRbcStall;
    out.push_back(std::move(p));
  }
  {
    ByzPreset p;
    p.name = "vector_bound_gap";
    p.description =
        "n=4 f=1 d=2: reliable broadcast works (n >= 3f + 1) but "
        "n < (d+2)f + 1, so Γ(X) is empty and every fault-free process "
        "halts at round 0 — the vector-consensus boundary of 1302.2543";
    p.n = 4, p.f = 1, p.d = 2;
    p.kind = BehaviorKind::kSilent;
    p.param = 1'000'000;  // effectively protocol-abiding, still distrusted
    p.expect = ByzExpectation::kRound0Empty;
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace

const std::vector<ByzPreset>& byz_presets() {
  static const std::vector<ByzPreset> kPresets = make_presets();
  return kPresets;
}

const ByzPreset* find_byz_preset(const std::string& name) {
  for (const ByzPreset& p : byz_presets()) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

ByzPreset sample_byz_preset(std::uint64_t seed) {
  // Structure stream, independent of the workload stream run_byz_preset
  // derives from the seed it is handed.
  Rng rng(seed ^ 0x42595A46555A5AULL);
  ByzPreset p;
  p.name = "byz_fuzz";
  p.description = "seeded random deciding tuple + behavior";
  p.d = rng.bernoulli(0.4) ? 2 : 1;
  p.f = (p.d == 1 && rng.bernoulli(0.3)) ? 2 : 1;
  // Smallest deciding n for (f, d), plus a little headroom.
  const std::size_t floor_n = std::max(3 * p.f, (p.d + 2) * p.f) + 1;
  p.n = floor_n + static_cast<std::size_t>(rng.uniform_int(0, 2));
  const int kind = static_cast<int>(rng.uniform_int(0, 3));
  CHC_CHECK(behavior_from_int(kind, p.kind), "sampler out of range");
  p.param = static_cast<std::uint64_t>(rng.uniform_int(0, 7));
  p.pattern = rng.bernoulli(0.25) ? core::InputPattern::kClustered
                                  : core::InputPattern::kUniform;
  p.expect = ByzExpectation::kDecide;
  return p;
}

std::string summarize(const ByzRunResult& r) {
  std::ostringstream os;
  os << r.name << " seed=" << r.seed << (r.passed ? " [pass]" : " [FAIL]")
     << " decided=" << r.decided << " round0_empty=" << r.round0_empty
     << " checker=" << (r.check.ok() ? "ok" : "violation")
     << " replay=" << (r.replay_identical ? "identical" : "DIVERGED")
     << " d_H=" << r.cert.max_pairwise_hausdorff;
  if (!r.passed) os << " detail=[" << r.detail << "]";
  return os.str();
}

ByzRunResult run_byz_preset(const ByzPreset& preset, std::uint64_t seed,
                            obs::Registry* metrics) {
  ByzRunResult r;
  r.name = preset.name;
  r.seed = seed;

  // The workload picks the Byzantine pids exactly like the crash harness
  // picks crash targets (seeded), with outlier inputs for the faulty set.
  const core::Workload workload = core::make_workload(
      preset.n, preset.f, preset.d, preset.pattern, seed,
      /*faulty_incorrect=*/true);

  ByzRunConfig bc;
  bc.lossy.base.cc.n = preset.n;
  bc.lossy.base.cc.f = preset.f;
  bc.lossy.base.cc.d = preset.d;
  bc.lossy.base.cc.eps = preset.eps;
  bc.lossy.base.pattern = preset.pattern;
  bc.lossy.base.crash_style = core::CrashStyle::kNone;
  bc.lossy.base.seed = seed;
  bc.lossy.reliable = true;
  bc.lossy.metrics = metrics;
  bc.allow_below_bound = preset.n < 3 * preset.f + 1;
  std::uint64_t i = 0;
  for (const sim::ProcessId p : workload.faulty) {
    bc.behaviors[p] = BehaviorSpec{preset.kind, preset.param + i};
    ++i;
  }

  obs::MemorySink sink;
  obs::Tracer tracer(&sink);
  bc.lossy.tracer = &tracer;

  const core::LossyRunOutput out = run_bcc_custom(bc, workload);
  r.trace_lines = sink.lines();
  r.cert = out.cert;
  r.quiescent = out.quiescent;
  r.decided = out.trace->decided().size();
  for (const sim::ProcessId p : out.correct) {
    if (out.trace->of(p).round0_empty) ++r.round0_empty;
  }

  r.check = obs::check_sink(sink);
  const core::ReplayResult rep = replay_trace_lines(r.trace_lines);
  r.replay_identical = rep.identical;

  std::string fail;
  if (!r.check.ok()) {
    fail = "checker: " + obs::describe(r.check.violations.front());
  } else if (!r.replay_identical) {
    std::ostringstream os;
    os << "replay: "
       << (rep.ran ? "diverged at line " + std::to_string(rep.first_diff_line)
                   : rep.error);
    fail = os.str();
  } else if (!r.quiescent) {
    fail = "run did not quiesce";
  } else {
    switch (preset.expect) {
      case ByzExpectation::kDecide:
        if (!r.cert.all_decided) {
          fail = "expected every fault-free process to decide";
        } else if (!r.cert.validity) {
          fail = "decided hull escaped the fault-free input hull";
        } else if (!r.cert.agreement) {
          fail = "pairwise Hausdorff exceeded eps";
        }
        break;
      case ByzExpectation::kRbcStall:
        if (r.decided != 0 || r.round0_empty != 0) {
          fail = "expected a total RBC stall (no deliveries at all)";
        }
        break;
      case ByzExpectation::kRound0Empty:
        if (r.decided != 0 || r.round0_empty != out.correct.size()) {
          fail = "expected every fault-free process to halt on empty gamma";
        }
        break;
    }
  }
  r.passed = fail.empty();
  r.detail = fail;

  if (metrics != nullptr) {
    metrics->counter("byz.runs").inc();
    if (!r.passed) metrics->counter("byz.failed_runs").inc();
    if (!r.check.ok()) metrics->counter("byz.checker_violations").inc();
    if (!r.replay_identical) metrics->counter("byz.replay_divergence").inc();
  }
  return r;
}

}  // namespace chc::bcc
