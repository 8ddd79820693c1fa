// The four workloads. Each runs either untraced (end-to-end metrics,
// public entry points only) or traced (per-layer metrics from the
// decorators in layers.hpp, plus a bit-identity check of the traced run's
// decisions against the public entry point on every traced instance).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "codec/codec.hpp"
#include "common/check.hpp"
#include "core/lossy.hpp"
#include "core/workload.hpp"
#include "geometry/intern.hpp"
#include "geometry/ops.hpp"
#include "geometry/polytope.hpp"
#include "layers.hpp"
#include "nemesis/presets.hpp"
#include "net/policy.hpp"
#include "obs/checker.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/service.hpp"
#include "transport/loopback.hpp"
#include "transport/node.hpp"
#include "transport/payload.hpp"

namespace chc::perfbench {

namespace {

// ---------------------------------------------------------------------------
// Clocks, quantiles, seeds

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU of the whole process (every thread), in seconds.
double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Linear-interpolated quantile (0 for an empty sample).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Seed of instance i of a run: distinct across runs and instances, and
/// the same on every run with the same --seed.
std::uint64_t instance_seed(std::uint64_t run_seed, std::uint64_t i) {
  return run_seed * 1'000'000 + i;
}

/// Set-up warm-ups use a fixed seed so their cost does not move with
/// --seed. Each set-up does a few hundred ms of work, and it is repeated
/// with the median reported, so a short stall does not decide it.
constexpr std::uint64_t kSetupSeed = 77'000'000;
constexpr int kSetupReps = 7;

template <typename F>
double median_setup_s(F&& once) {
  std::vector<double> t;
  for (int i = 0; i < kSetupReps; ++i) {
    const double t0 = wall_s();
    once();
    t.push_back(wall_s() - t0);
  }
  return quantile(t, 0.5);
}

/// Defeats dead-code elimination of re-run kernels.
volatile std::size_t g_sink = 0;

bool bit_identical(const std::vector<geo::Vec>& a,
                   const std::vector<geo::Vec>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].dim() != b[i].dim()) return false;
    if (std::memcmp(a[i].begin(), b[i].begin(),
                    a[i].dim() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Every process's decision vertex list, bit for bit.
bool same_decisions(const core::TraceCollector& a,
                    const core::TraceCollector& b) {
  if (a.n() != b.n()) return false;
  for (sim::ProcessId p = 0; p < a.n(); ++p) {
    const auto& da = a.of(p).decision;
    const auto& db = b.of(p).decision;
    if (da.has_value() != db.has_value()) return false;
    if (da && !bit_identical(da->vertices(), db->vertices())) return false;
  }
  return true;
}

bool certified(const core::LossyRunOutput& out) {
  return out.quiescent && out.cert.all_decided && out.cert.validity &&
         out.cert.agreement;
}

core::Workload workload_of(const core::LossyRunConfig& lc) {
  const core::RunConfig& rc = lc.base;
  return core::make_workload(
      rc.cc.n, rc.cc.f, rc.cc.d, rc.pattern, rc.seed,
      rc.cc.fault_model == core::FaultModel::kCrashIncorrectInputs);
}

// ---------------------------------------------------------------------------
// End-to-end report

/// A timed phase: wall and process CPU from construction to finish(), and
/// one latency sample per completed instance. Every figure it gives is
/// over the whole phase, so a slowdown in part of the phase shows in full.
class Timed {
 public:
  Timed() : wall0_(wall_s()), cpu0_(cpu_s()) {}

  void done(double latency_ms) { latency_ms_.push_back(latency_ms); }

  /// Ends the phase (call once, after the last completion).
  void finish() {
    wall_ = wall_s() - wall0_;
    cpu_ = cpu_s() - cpu0_;
  }

  std::size_t count() const { return latency_ms_.size(); }
  double wall() const { return wall_; }
  double cpu() const { return cpu_; }
  const std::vector<double>& latency_ms() const { return latency_ms_; }

 private:
  double wall0_, cpu0_;
  double wall_ = 0.0, cpu_ = 0.0;
  std::vector<double> latency_ms_;
};

void add_end_to_end(Report& r, const Timed& t, double setup_s) {
  const auto n = static_cast<double>(t.count());
  r.add("instances_per_s", ratio(n, t.wall()), "1/s");
  r.add("cpu_ms_per_instance", ratio(1e3 * t.cpu(), n), "ms");
  r.add("latency_wall_ms_p50", quantile(t.latency_ms(), 0.50), "ms");
  r.add("latency_wall_ms_p90", quantile(t.latency_ms(), 0.90), "ms");
  if (t.count() >= 1000) {
    r.add("latency_wall_ms_p99", quantile(t.latency_ms(), 0.99), "ms");
  }
  r.add("latency_samples", n, "count");
  r.add("failed_ratio",
        ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
        "ratio");
  r.add("setup_s", setup_s, "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
}

// ---------------------------------------------------------------------------
// Traced runs: per-layer accumulation

struct LayerAgg {
  Probe probe;
  std::uint64_t instances = 0;
  // Counts from the traced runs.
  std::uint64_t events = 0, msgs = 0, timers = 0;
  std::uint64_t data_frames = 0, retransmits = 0, acks = 0;
  std::uint64_t subset_calls = 0, combine_calls = 0, hausdorff_calls = 0;
  std::uint64_t combo_hits = 0, combo_misses = 0;
  std::uint64_t delta_hits = 0, delta_misses = 0;
  // Kernel re-runs on the recorded inputs.
  double subset_ns = 0, combine_ns = 0, hausdorff_ns = 0;
  std::uint64_t subset_runs = 0, combine_runs = 0, hausdorff_runs = 0;
  // Tracing / verification, over `obs_instances` traced instances.
  std::uint64_t obs_instances = 0;
  std::uint64_t trace_lines = 0, trace_bytes = 0;
  double tracing_ms = 0, check_ms = 0;
  // CPU of the same instances through the public entry point vs traced.
  double untraced_cpu = 0, traced_cpu = 0;
  std::vector<double> decide_units;
};

/// Folds one traced run's counters into the aggregate.
void count_run(LayerAgg& a, const core::LossyRunOutput& out) {
  ++a.instances;
  a.events += out.stats.events_processed;
  a.msgs += out.stats.messages_sent;
  a.timers += out.stats.timers_fired;
  a.data_frames += out.shims.data_sent;
  a.retransmits += out.shims.retransmits;
  a.acks += out.shims.acks_sent;
  const core::TraceCollector& tr = *out.trace;
  for (sim::ProcessId p = 0; p < tr.n(); ++p) {
    const core::ProcessTrace& pt = tr.of(p);
    if (pt.round0_view) ++a.subset_calls;
    a.combine_calls += pt.senders.size();
  }
  std::size_t decided = 0;
  for (sim::ProcessId p : out.correct) decided += tr.of(p).decision ? 1 : 0;
  if (decided > 1) a.hausdorff_calls += decided * (decided - 1) / 2;
  const geo::InternStats is = geo::intern_stats();
  a.combo_hits += is.combo_hits;
  a.combo_misses += is.combo_misses;
  a.delta_hits += is.combo_delta_hits;
  a.delta_misses += is.combo_delta_misses;
}

/// Model time of the last correct decision of the run just traced.
double last_correct_decision(const Probe& probe,
                             const std::vector<sim::ProcessId>& correct) {
  double t = 0.0;
  for (sim::ProcessId p : correct) t = std::max(t, probe.decide_at.at(p));
  return t;
}

/// Re-runs the public geometry kernels on what the traced run recorded:
/// the round-0 views (subset hulls), up to `max_combine` distinct round
/// operand sets (L, uncached), and every pair of correct decisions.
void rerun_kernels(LayerAgg& a, const core::LossyRunOutput& out,
                   const core::CCConfig& cc, std::size_t max_combine) {
  const core::TraceCollector& tr = *out.trace;
  for (sim::ProcessId p = 0; p < tr.n(); ++p) {
    const core::ProcessTrace& pt = tr.of(p);
    if (!pt.round0_view) continue;
    std::vector<geo::Vec> points;
    for (const auto& [origin, x] : *pt.round0_view) points.push_back(x);
    const std::int64_t t0 = now_ns();
    const geo::Polytope h = geo::intersection_of_subset_hulls(
        points, cc.round0_drop(), cc.rel_tol);
    a.subset_ns += static_cast<double>(now_ns() - t0);
    ++a.subset_runs;
    g_sink = g_sink + h.vertices().size();
  }

  // Identical (round, sender set) pairs share operands; run each once.
  std::set<std::pair<std::size_t, std::set<sim::ProcessId>>> seen;
  std::size_t runs = 0;
  for (sim::ProcessId p = 0; p < tr.n() && runs < max_combine; ++p) {
    for (const auto& [t, senders] : tr.of(p).senders) {
      if (runs >= max_combine) break;
      if (!seen.insert({t, senders}).second) continue;
      std::vector<geo::Polytope> ops;
      for (sim::ProcessId q : senders) {
        const core::ProcessTrace& qt = tr.of(q);
        if (t == 1 && qt.h0) {
          ops.push_back(*qt.h0);
        } else if (auto it = qt.h.find(t - 1); t > 1 && it != qt.h.end()) {
          ops.push_back(it->second);
        }
      }
      if (ops.size() != senders.size()) continue;  // sender restarted
      const std::int64_t t0 = now_ns();
      const geo::Polytope l = geo::equal_weight_combination(ops, cc.rel_tol);
      a.combine_ns += static_cast<double>(now_ns() - t0);
      ++a.combine_runs;
      ++runs;
      g_sink = g_sink + l.vertices().size();
    }
  }

  std::vector<const geo::Polytope*> decisions;
  for (sim::ProcessId p : out.correct) {
    if (tr.of(p).decision) decisions.push_back(&*tr.of(p).decision);
  }
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    for (std::size_t j = i + 1; j < decisions.size(); ++j) {
      const std::int64_t t0 = now_ns();
      const double h = geo::hausdorff(*decisions[i], *decisions[j]);
      a.hausdorff_ns += static_cast<double>(now_ns() - t0);
      ++a.hausdorff_runs;
      g_sink = g_sink + (h > 0.0 ? 1 : 0);
    }
  }
}

/// Live-cluster layer counters (transport + codec).
struct LiveAgg {
  TransportProbe probe;
  std::uint64_t instances = 0;
  double wall = 0.0;
  double decode_ns = 0.0;
  std::uint64_t decoded = 0;
  double untraced_cpu_per_instance = 0.0, traced_cpu_per_instance = 0.0;
};

struct SvcAgg {
  double speedup = 0.0;
  double backpressure_per_instance = 0.0;
};

/// Every per-layer metric, zero where the workload has no such layer.
void add_layers(Report& r, const LayerAgg* m, const LiveAgg* live,
                const SvcAgg* svc) {
  static const LayerAgg kNoLayers;
  const LayerAgg& a = m != nullptr ? *m : kNoLayers;
  const LayerClock& c = a.probe.clock;
  const auto n = static_cast<double>(std::max<std::uint64_t>(a.instances, 1));
  const auto per = [&](double v) { return a.instances > 0 ? v / n : 0.0; };

  r.add("bench.traced_instances",
        static_cast<double>(a.instances > 0 || live == nullptr
                                ? a.instances
                                : live->instances),
        "count");
  r.add("sim.self_ms_per_instance",
        per(c.self_ms(Layer::kSim) + c.self_ms(Layer::kSimSend)), "ms");
  r.add("sim.send_ms_per_instance", per(c.self_ms(Layer::kSimSend)), "ms");
  r.add("sim.events_per_instance", per(a.events), "count");
  r.add("sim.msgs_per_instance", per(a.msgs), "count");
  r.add("sim.timers_per_instance", per(a.timers), "count");

  r.add("net.shim_self_ms_per_instance", per(c.self_ms(Layer::kNet)), "ms");
  r.add("net.shim_timer_calls_per_instance",
        per(static_cast<double>(a.probe.shim_timer_calls)), "count");
  r.add("net.data_frames_per_instance", per(a.data_frames), "count");
  r.add("net.retransmits_per_instance", per(a.retransmits), "count");
  r.add("net.acks_per_instance", per(a.acks), "count");
  r.add("net.retransmit_ratio",
        ratio(static_cast<double>(a.retransmits),
              static_cast<double>(a.data_frames)),
        "ratio");

  r.add("dsm.round0_ms_per_instance", per(c.self_ms(Layer::kDsm)), "ms");
  r.add("dsm.msgs_per_instance",
        per(static_cast<double>(a.probe.dsm_msgs)), "count");
  r.add("geometry.subset_hulls_us_per_call",
        ratio(a.subset_ns * 1e-3, static_cast<double>(a.subset_runs)), "us");
  r.add("geometry.subset_hulls_calls_per_instance", per(a.subset_calls),
        "count");

  r.add("core.round_ms_per_instance", per(c.self_ms(Layer::kRound)), "ms");
  r.add("geometry.combine_us_per_call",
        ratio(a.combine_ns * 1e-3, static_cast<double>(a.combine_runs)), "us");
  r.add("geometry.combine_calls_per_instance", per(a.combine_calls), "count");
  const double lookups = static_cast<double>(a.combo_hits + a.combo_misses);
  const double delta = static_cast<double>(a.delta_hits + a.delta_misses);
  r.add("geometry.combo_lookups_per_instance", per(lookups), "count");
  r.add("geometry.combo_hit_ratio",
        ratio(static_cast<double>(a.combo_hits), lookups), "ratio");
  r.add("geometry.combo_delta_lookups_per_instance", per(delta), "count");
  r.add("geometry.combo_delta_hit_ratio",
        ratio(static_cast<double>(a.delta_hits), delta), "ratio");

  r.add("core.certify_ms_per_instance", per(c.self_ms(Layer::kCertify)), "ms");
  r.add("geometry.hausdorff_us_per_call",
        ratio(a.hausdorff_ns * 1e-3, static_cast<double>(a.hausdorff_runs)),
        "us");
  r.add("geometry.hausdorff_calls_per_instance", per(a.hausdorff_calls),
        "count");

  const auto oper = [&](double v) {
    return a.obs_instances > 0 ? v / static_cast<double>(a.obs_instances)
                               : 0.0;
  };
  r.add("obs.trace_lines_per_instance",
        oper(static_cast<double>(a.trace_lines)), "count");
  r.add("obs.trace_kb_per_instance",
        oper(static_cast<double>(a.trace_bytes) / 1024.0), "KiB");
  r.add("obs.tracing_ms_per_instance", oper(a.tracing_ms), "ms");
  r.add("obs.check_ms_per_instance", oper(a.check_ms), "ms");

  static const LiveAgg kNoLive;
  const LiveAgg& l = live != nullptr ? *live : kNoLive;
  const TransportProbe& tp = l.probe;
  const auto lper = [&](double v) {
    return l.instances > 0 ? v / static_cast<double>(l.instances) : 0.0;
  };
  r.add("transport.frames_per_instance",
        lper(static_cast<double>(tp.frames_sent)), "count");
  r.add("transport.kb_per_instance",
        lper(static_cast<double>(tp.bytes_sent) / 1024.0), "KiB");
  r.add("transport.send_us_per_frame",
        ratio(static_cast<double>(tp.send_ns) * 1e-3,
              static_cast<double>(tp.frames_sent)),
        "us");
  r.add("transport.handler_ms_per_instance",
        lper(static_cast<double>(tp.handler_ns) * 1e-6), "ms");
  r.add("codec.decode_us_per_frame",
        ratio(l.decode_ns * 1e-3, static_cast<double>(l.decoded)), "us");

  r.add("svc.speedup_4_over_1", svc != nullptr ? svc->speedup : 0.0, "ratio");
  r.add("svc.backpressure_waits_per_instance",
        svc != nullptr ? svc->backpressure_per_instance : 0.0, "count");

  // Traced vs untraced CPU of the same instances, and the share of the
  // measured wall time no layer span covers (sim loop self time; for the
  // live cluster, stepping time outside transport send / handler spans).
  double overhead = 0.0, unattributed = 0.0;
  if (a.instances > 0) {
    overhead = 100.0 * (ratio(a.traced_cpu, a.untraced_cpu) - 1.0);
    unattributed = 100.0 * ratio(c.self_ms(Layer::kSim),
                                 c.inclusive_ms(Layer::kSim));
  } else if (live != nullptr) {
    overhead = 100.0 * (ratio(l.traced_cpu_per_instance,
                              l.untraced_cpu_per_instance) -
                        1.0);
    unattributed =
        100.0 * (1.0 - ratio(static_cast<double>(tp.send_ns + tp.handler_ns) *
                                 1e-9,
                             l.wall));
  }
  r.add("bench.tracing_overhead_pct", overhead, "%");
  r.add("bench.unattributed_pct", unattributed, "%");

  if (!a.decide_units.empty()) {
    r.add("decide_latency_units_p50", quantile(a.decide_units, 0.50), "units");
    r.add("decide_latency_units_p90", quantile(a.decide_units, 0.90), "units");
  }
}

/// Shares of traced CPU per layer (the README's comparison with the
/// profile split). Geometry is estimated from the kernel re-runs: subset
/// hulls + L misses (memo hits cost nothing) + Hausdorff pairs.
void add_shares(Report& r, const LayerAgg& a) {
  const LayerClock& c = a.probe.clock;
  const double total_ms = c.inclusive_ms(Layer::kSim) +
                          c.self_ms(Layer::kCertify);
  if (total_ms <= 0.0) return;
  const double geo_ms =
      1e-6 * (ratio(a.subset_ns, static_cast<double>(a.subset_runs)) *
                  static_cast<double>(a.subset_calls) +
              ratio(a.combine_ns, static_cast<double>(a.combine_runs)) *
                  static_cast<double>(a.combo_misses) +
              ratio(a.hausdorff_ns, static_cast<double>(a.hausdorff_runs)) *
                  static_cast<double>(a.hausdorff_calls));
  const auto pct = [&](double ms) { return 100.0 * ms / total_ms; };
  r.add("share.sim_pct",
        pct(c.self_ms(Layer::kSim) + c.self_ms(Layer::kSimSend)), "%");
  r.add("share.net_pct", pct(c.self_ms(Layer::kNet)), "%");
  r.add("share.dsm_pct", pct(c.self_ms(Layer::kDsm)), "%");
  r.add("share.round_pct", pct(c.self_ms(Layer::kRound)), "%");
  r.add("share.certify_pct", pct(c.self_ms(Layer::kCertify)), "%");
  r.add("share.geometry_est_pct", pct(geo_ms), "%");
}

/// The paired traced phase shared by the three simulator workloads: each
/// instance runs once through the public path (`run_public`, untraced) and
/// once through run_traced, from cold geometry caches both times, and the
/// two must decide bit-identically.
template <typename Public>
core::LossyRunOutput traced_instance(LayerAgg& a, Report& r, const core::LossyRunConfig& lc,
                     const core::Workload& w, Public&& run_public,
                     bool rerun, std::size_t max_combine) {
  geo::clear_intern_caches();
  const double c0 = cpu_s();
  const core::TraceCollector* reference = run_public();
  const double c1 = cpu_s();
  geo::clear_intern_caches();
  core::LossyRunOutput out = run_traced(lc, w, a.probe);
  const double c2 = cpu_s();
  ++r.attempted;
  a.untraced_cpu += c1 - c0;
  a.traced_cpu += c2 - c1;
  count_run(a, out);
  a.decide_units.push_back(last_correct_decision(a.probe, out.correct));
  if (!certified(out)) r.fail();
  if (reference != nullptr && !same_decisions(*reference, *out.trace)) {
    r.fail();
    r.add("traced_decision_mismatch_seed",
          static_cast<double>(lc.base.seed), "seed");
  }
  if (rerun) rerun_kernels(a, out, lc.base.cc, max_combine);
  return out;
}

/// Tracing and verification of one instance, from outside: the run through
/// core::run_cc_lossy_custom without and with a MemorySink (cold caches
/// both times; the difference is the cost of tracing), then
/// obs::check_trace_lines on that trace. Returns the check's CPU seconds.
double measure_obs(LayerAgg& a, core::LossyRunConfig lc,
                   const core::Workload& w, Report& r) {
  geo::clear_intern_caches();
  double t0 = wall_s();
  if (!certified(core::run_cc_lossy_custom(lc, w))) r.fail();
  const double plain_ms = 1e3 * (wall_s() - t0);
  obs::MemorySink sink;
  obs::Tracer tracer(&sink);
  lc.tracer = &tracer;
  geo::clear_intern_caches();
  t0 = wall_s();
  core::run_cc_lossy_custom(lc, w);
  a.tracing_ms += 1e3 * (wall_s() - t0) - plain_ms;

  const std::vector<std::string> lines = sink.lines();
  const double c0 = cpu_s();
  t0 = wall_s();
  if (!obs::check_trace_lines(lines).ok()) r.fail();
  a.check_ms += 1e3 * (wall_s() - t0);
  ++a.obs_instances;
  a.trace_lines += lines.size();
  for (const std::string& line : lines) a.trace_bytes += line.size() + 1;
  return cpu_s() - c0;
}

// ---------------------------------------------------------------------------
// svc-d2-mixed

std::size_t svc_shards() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(4, hw);
}

/// The E11 mix: n=5 f=1 d=2 eps=0.15, four crash styles, half of the
/// instances behind the lossy preset with the reliable shim, tracing off.
/// The service routes instance id to shard id mod shards, so the mix is
/// keyed on id / 4 (4 = crash styles = most shards): every shard sees the
/// whole mix instead of one crash style and one network each.
svc::InstanceSpec svc_spec(std::uint64_t id, std::uint64_t seed) {
  static constexpr core::CrashStyle kStyles[] = {
      core::CrashStyle::kNone, core::CrashStyle::kEarly,
      core::CrashStyle::kMidBroadcast, core::CrashStyle::kLate};
  const std::uint64_t k = id / 4;
  svc::InstanceSpec spec;
  spec.id = id;
  spec.run.base.cc = core::CCConfig{.n = 5, .f = 1, .d = 2, .eps = 0.15};
  spec.run.base.crash_style = kStyles[k % 4];
  spec.run.base.seed = seed;
  spec.run.reliable = (k / 4) % 2 == 1;
  if (spec.run.reliable) {
    spec.run.policy = net::NetworkPolicy::lossy(0.10, 0.03, 0.05);
  }
  spec.trace = false;
  return spec;
}

bool svc_ok(const svc::InstanceResult& res) {
  return res.ok && res.error.empty();
}

/// Batch traffic with full queues: every shard keeps queue_capacity
/// instances queued plus one running, as a batch larger than the queues
/// keeps it, until `seconds` have passed; then the service drains. Latency
/// runs from admission (submit() returned) until take_results() shows the
/// instance.
///
/// The service routes id to shard id mod shards, so each shard is refilled
/// with its own ids. Plain round-robin submission (submit_batch) would
/// block on one shard while the others run their queues down, and the
/// queue depths would drift apart. Instead, after refilling every shard,
/// one more submit() blocks until the next shard in turn takes an
/// instance, which it does right after posting a result: the loop wakes on
/// completions without polling.
Timed svc_full_queues(svc::ConsensusService& service, std::size_t shards,
                      std::uint64_t run_seed, double seconds, Report& r) {
  const std::size_t depth = svc::ServiceConfig{}.queue_capacity + 1;
  Timed t;
  std::map<std::uint64_t, double> admitted;
  std::vector<std::size_t> pending(shards, 0);  // admitted, result not seen
  std::vector<std::uint64_t> next_id(shards);
  for (std::size_t s = 0; s < shards; ++s) next_id[s] = s;
  const auto admit = [&](std::size_t s) {
    const std::uint64_t id = next_id[s];
    next_id[s] += shards;
    service.submit(svc_spec(id, instance_seed(run_seed, id)));
    admitted.emplace(id, wall_s());
    ++pending[s];
    ++r.attempted;
  };
  const auto collect = [&] {
    const std::vector<svc::InstanceResult> done = service.take_results();
    const double seen = wall_s();
    for (const svc::InstanceResult& res : done) {
      t.done(1e3 * (seen - admitted.at(res.id)));
      admitted.erase(res.id);
      --pending[res.shard];
      if (!svc_ok(res)) r.fail();
    }
  };
  const double deadline = wall_s() + seconds;
  for (std::size_t turn = 0; turn == 0 || wall_s() < deadline; ++turn) {
    for (std::size_t s = 0; s < shards; ++s) {
      while (pending[s] < depth) admit(s);
    }
    admit(turn % shards);  // blocks until that shard takes an instance
    collect();
  }
  service.drain();
  collect();
  t.finish();
  return t;
}

struct BatchPass {
  double wall = 0.0;
  std::vector<svc::InstanceResult> results;
};

BatchPass svc_batch(const std::vector<svc::InstanceSpec>& specs,
                    std::size_t shards, obs::Registry* metrics) {
  geo::clear_intern_caches();
  BatchPass b;
  const double t0 = wall_s();
  b.results = svc::run_batch(specs, shards, metrics);
  b.wall = wall_s() - t0;
  return b;
}

}  // namespace

// ---------------------------------------------------------------------------
// sim-d3-n8

namespace {

core::LossyRunConfig d3_config(std::uint64_t seed) {
  core::LossyRunConfig lc;
  lc.base.cc = core::CCConfig{.n = 8, .f = 1, .d = 3, .eps = 0.15};
  lc.base.seed = seed;
  lc.reliable = false;  // reliable links: no injector, no shim
  return lc;
}

}  // namespace

Report run_sim_d3(const Options& o) {
  Report r;
  const double setup = median_setup_s([&] {
    geo::clear_intern_caches();
    for (std::uint64_t i = 0; i < 4; ++i) {
      if (!certified(core::run_cc_lossy(d3_config(kSetupSeed + i)))) r.fail();
    }
  });

  if (!o.trace) {
    Timed t;
    const double deadline = wall_s() + o.seconds;
    for (std::uint64_t i = 0; i == 0 || wall_s() < deadline; ++i) {
      const double t0 = wall_s();
      const core::LossyRunOutput out =
          core::run_cc_lossy(d3_config(instance_seed(o.seed, i)));
      t.done(1e3 * (wall_s() - t0));
      ++r.attempted;
      if (!certified(out)) r.fail();
    }
    t.finish();
    add_end_to_end(r, t, setup);
    return r;
  }

  LayerAgg a;
  const double deadline = wall_s() + 0.45 * o.seconds;
  const double kernel_budget = 0.25 * o.seconds;
  for (std::uint64_t i = 0; i == 0 || wall_s() < deadline; ++i) {
    const core::LossyRunConfig lc = d3_config(instance_seed(o.seed, i));
    const core::Workload w = workload_of(lc);
    core::LossyRunOutput pub;
    const double kernel_s =
        1e-9 * (a.subset_ns + a.combine_ns + a.hausdorff_ns);
    traced_instance(
        a, r, lc, w,
        [&] {
          pub = core::run_cc_lossy(lc);
          return pub.trace.get();
        },
        kernel_s < kernel_budget, 2);
  }
  add_layers(r, &a, nullptr, nullptr);
  add_shares(r, a);
  return r;
}

// ---------------------------------------------------------------------------
// nemesis-fuzz-checked

namespace {

/// run_preset's lowering (src/nemesis/presets.cpp + runner.cpp) of a
/// sampled preset onto the lossy harness configuration.
core::LossyRunConfig nemesis_config(const nemesis::Preset& preset,
                                    std::uint64_t seed, core::Workload& w) {
  nemesis::ScenarioSpec spec;
  spec.cc.n = preset.n;
  spec.cc.f = preset.f;
  spec.cc.d = preset.d;
  spec.cc.eps = preset.eps;
  spec.seed = seed;
  spec.crash_count = preset.crash_count;
  w = core::make_workload(
      spec.cc.n, spec.crash_count, spec.cc.d, spec.pattern, seed,
      spec.cc.fault_model == core::FaultModel::kCrashIncorrectInputs);
  const nemesis::Scenario::Compiled compiled =
      preset.build(w.faulty, preset.n).compile(spec.cc.n);
  CHC_CHECK(compiled.byz.empty(), "sampled presets are crash-only");

  core::LossyRunConfig lc;
  lc.base.cc = spec.cc;
  lc.base.pattern = spec.pattern;
  lc.base.crash_style = core::CrashStyle::kNone;
  lc.base.delay = spec.delay;
  lc.base.seed = seed;
  lc.policy = compiled.policy;
  lc.schedule = compiled.schedule;
  lc.storms = compiled.storms;
  if (compiled.crashes.planned_crashes() > 0) lc.crash_plans = compiled.crashes;
  lc.rel = spec.rel;
  lc.reliable = true;
  return lc;
}

/// (process, decision vertices) of every kDecide event, in trace order.
using Decides = std::vector<std::pair<std::size_t, std::vector<geo::Vec>>>;

Decides decides_of(const std::vector<obs::TraceEvent>& events) {
  Decides d;
  for (const obs::TraceEvent& e : events) {
    if (e.kind == obs::EventKind::kDecide) d.emplace_back(e.p, e.verts);
  }
  return d;
}

Decides decides_of(const std::vector<std::string>& lines) {
  std::vector<obs::TraceEvent> events;
  for (const std::string& line : lines) {
    if (line.find("\"decide\"") == std::string::npos) continue;
    obs::TraceEvent e;
    if (obs::parse_event(line, e)) events.push_back(std::move(e));
  }
  return decides_of(events);
}

bool same_decides(const Decides& a, const Decides& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first) return false;
    if (!bit_identical(a[i].second, b[i].second)) return false;
  }
  return true;
}

}  // namespace

Report run_nemesis(const Options& o) {
  Report r;
  const double setup = median_setup_s([&] {
    geo::clear_intern_caches();
    for (std::uint64_t i = 0; i < 24; ++i) {
      const std::uint64_t s = kSetupSeed + i;
      if (!nemesis::run_preset(nemesis::sample_preset(s), s).passed) r.fail();
    }
  });

  if (!o.trace) {
    Timed t;
    std::vector<double> units;
    const double deadline = wall_s() + o.seconds;
    for (std::uint64_t i = 0; i == 0 || wall_s() < deadline; ++i) {
      const std::uint64_t s = instance_seed(o.seed, i);
      const double t0 = wall_s();
      const nemesis::ScenarioResult res =
          nemesis::run_preset(nemesis::sample_preset(s), s);
      t.done(1e3 * (wall_s() - t0));
      units.push_back(res.decide_latency);
      ++r.attempted;
      if (!res.passed) r.fail();
    }
    t.finish();
    add_end_to_end(r, t, setup);
    r.add("decide_latency_units_p50", quantile(units, 0.50), "units");
    r.add("decide_latency_units_p90", quantile(units, 0.90), "units");
    return r;
  }

  LayerAgg a;
  const double deadline = wall_s() + 0.5 * o.seconds;
  for (std::uint64_t i = 0; i == 0 || wall_s() < deadline; ++i) {
    const std::uint64_t s = instance_seed(o.seed, i);
    const nemesis::Preset preset = nemesis::sample_preset(s);
    core::Workload w;
    core::LossyRunConfig lc = nemesis_config(preset, s, w);
    const double check_cpu = measure_obs(a, lc, w, r);

    obs::MemorySink sink;
    obs::Tracer tracer(&sink);
    lc.tracer = &tracer;
    nemesis::ScenarioResult pub;
    traced_instance(
        a, r, lc, w,
        [&]() -> const core::TraceCollector* {
          pub = nemesis::run_preset(preset, s);
          if (!pub.passed) r.fail();
          return nullptr;  // compared through the trace below
        },
        true, 16);
    // run_preset checks its trace; charge the traced side the same check.
    a.traced_cpu += check_cpu;
    if (!same_decides(decides_of(sink.events()), decides_of(pub.trace_lines))) {
      r.fail();
      r.add("traced_decision_mismatch_seed", static_cast<double>(s), "seed");
    }
  }
  add_layers(r, &a, nullptr, nullptr);
  add_shares(r, a);
  return r;
}

// ---------------------------------------------------------------------------
// live-loopback-d2

namespace {

constexpr std::size_t kLiveN = 5;
constexpr std::size_t kWave = 8;
constexpr double kLiveEps = 0.15;
constexpr double kWaveTimeoutS = 20.0;
/// NodeRuntime keeps every instance resident (its store role keeps
/// answering peers), so a cluster is replaced after this many waves to
/// bound memory; construction is part of the timed phase.
constexpr std::size_t kWavesPerCluster = 16;

/// Five NodeRuntimes over one LoopbackHub, stepped from the caller.
struct Cluster {
  explicit Cluster(TransportProbe* probe) : hub(kLiveN) {
    for (std::size_t i = 0; i < kLiveN; ++i) {
      std::unique_ptr<transport::Transport> ep = hub.endpoint(i);
      if (probe != nullptr) {
        ep = std::make_unique<TimedTransport>(std::move(ep), *probe);
      }
      endpoints.push_back(std::move(ep));
      transport::NodeConfig cfg;
      cfg.id = i;
      cfg.n = kLiveN;
      nodes.push_back(
          std::make_unique<transport::NodeRuntime>(cfg, *endpoints.back()));
    }
  }

  transport::LoopbackHub hub;
  std::vector<std::unique_ptr<transport::Transport>> endpoints;
  std::vector<std::unique_ptr<transport::NodeRuntime>> nodes;
  std::uint64_t next_id = 1;
};

transport::InstanceSpec live_spec(std::uint64_t id, std::uint64_t seed) {
  const core::Workload w = core::make_workload(
      kLiveN, 1, 2, core::InputPattern::kUniform, seed);
  transport::InstanceSpec spec;
  spec.id = id;
  spec.cc.n = kLiveN;
  spec.cc.f = 1;
  spec.cc.d = 2;
  spec.cc.eps = kLiveEps;
  spec.cc.input_magnitude = std::max(1.0, w.correct_magnitude);
  spec.seed = seed;
  spec.inputs = w.inputs;
  spec.faulty.assign(w.faulty.begin(), w.faulty.end());
  return spec;
}

/// One wave of kWave concurrent instances: submit to every node, step all
/// nodes non-blocking until each instance has decided everywhere. Latency
/// runs from the wave's submission to the instance's last node decision;
/// every instance's decisions must agree pairwise within eps.
void live_wave(Cluster& c, std::uint64_t seed_base, Timed& t, Report& r) {
  std::vector<std::uint64_t> ids;
  for (std::size_t k = 0; k < kWave; ++k) {
    const std::uint64_t id = c.next_id++;
    const transport::InstanceSpec spec =
        live_spec(id, instance_seed(seed_base, id));
    for (auto& node : c.nodes) node->start_instance(spec);
    ids.push_back(id);
  }
  r.attempted += kWave;
  const double t0 = wall_s();
  std::vector<std::vector<bool>> decided(kWave,
                                         std::vector<bool>(kLiveN, false));
  std::vector<bool> done(kWave, false);
  std::size_t remaining = kWave;
  while (remaining > 0 && wall_s() - t0 < kWaveTimeoutS) {
    for (auto& node : c.nodes) node->step(0);
    for (std::size_t k = 0; k < kWave; ++k) {
      if (done[k]) continue;
      bool all = true;
      for (std::size_t n = 0; n < kLiveN; ++n) {
        if (!decided[k][n]) {
          decided[k][n] = c.nodes[n]->status(ids[k]).decided;
          all = all && decided[k][n];
        }
      }
      if (all) {
        done[k] = true;
        --remaining;
        t.done(1e3 * (wall_s() - t0));
      }
    }
  }
  r.fail(remaining);
  for (std::size_t k = 0; k < kWave; ++k) {
    if (!done[k]) continue;
    std::vector<geo::Polytope> ds;
    for (auto& node : c.nodes) {
      ds.push_back(geo::Polytope::from_points(node->status(ids[k]).decision));
    }
    bool agree = true;
    for (std::size_t i = 0; i < ds.size(); ++i) {
      for (std::size_t j = i + 1; j < ds.size(); ++j) {
        agree = agree && geo::hausdorff(ds[i], ds[j]) <= kLiveEps + 1e-9;
      }
    }
    if (!agree) r.fail();
  }
}

/// Waves until `deadline`, on a fresh cluster every kWavesPerCluster waves.
Timed live_phase(TransportProbe* probe, std::uint64_t seed,
                 std::uint64_t first_id, double seconds, Report& r) {
  Timed t;
  const double deadline = wall_s() + seconds;
  std::uint64_t next_id = first_id;
  do {
    Cluster c(probe);
    c.next_id = next_id;
    for (std::size_t wave = 0; wave < kWavesPerCluster; ++wave) {
      live_wave(c, seed, t, r);
      if (wall_s() >= deadline) break;
    }
    next_id = c.next_id;
  } while (wall_s() < deadline);
  t.finish();
  return t;
}

/// Transport and codec layers: plain waves for 45% of `seconds`, waves over
/// TimedTransport endpoints for the rest, then the captured DATA frames
/// re-decoded.
LiveAgg live_layers(std::uint64_t seed, double seconds, Report& r) {
  LiveAgg l;
  l.probe.capture_limit = 4096;
  const Timed plain = live_phase(nullptr, seed, 1, 0.45 * seconds, r);
  // Distinct instance ids (and so seeds) from the plain phase.
  const Timed traced =
      live_phase(&l.probe, seed, 500'000, 0.55 * seconds, r);
  l.instances = traced.count();
  l.wall = traced.wall();
  l.untraced_cpu_per_instance =
      ratio(plain.cpu(), static_cast<double>(plain.count()));
  l.traced_cpu_per_instance =
      ratio(traced.cpu(), static_cast<double>(traced.count()));
  for (const transport::WireFrame& f : l.probe.captured) {
    const std::int64_t t0 = now_ns();
    const auto rel = codec::decode_rel_frame(f.payload);
    const auto data = rel ? transport::from_rel_frame(*rel) : std::nullopt;
    l.decode_ns += static_cast<double>(now_ns() - t0);
    ++l.decoded;
    if (!data) r.fail();
  }
  return l;
}

}  // namespace

Report run_live(const Options& o) {
  Report r;
  const double setup = median_setup_s([&] {
    Cluster c(nullptr);
    Timed ignored;
    Report warmup;
    for (std::size_t wave = 0; wave < kWavesPerCluster / 2; ++wave) {
      live_wave(c, kSetupSeed, ignored, warmup);
    }
    r.fail(warmup.failed);
  });

  if (!o.trace) {
    const Timed t = live_phase(nullptr, o.seed, 1, o.seconds, r);
    add_end_to_end(r, t, setup);
    return r;
  }

  const LiveAgg l = live_layers(o.seed, 0.9 * o.seconds, r);
  add_layers(r, nullptr, &l, nullptr);
  return r;
}

// ---------------------------------------------------------------------------
// svc-d2-mixed (after the live section: its traced run reuses live_layers)

Report run_svc(const Options& o) {
  Report r;
  const std::size_t shards = svc_shards();
  const double setup = median_setup_s([&] {
    std::vector<svc::InstanceSpec> warmup;
    for (std::uint64_t i = 0; i < 96 * shards; ++i) {
      warmup.push_back(svc_spec(i, kSetupSeed + i));
    }
    for (const auto& res : svc_batch(warmup, shards, nullptr).results) {
      if (!svc_ok(res)) r.fail();
    }
  });

  if (!o.trace) {
    svc::ServiceConfig cfg;
    cfg.shards = shards;
    svc::ConsensusService service(std::move(cfg));
    const Timed t = svc_full_queues(service, shards, o.seed, o.seconds, r);
    add_end_to_end(r, t, setup);
    return r;
  }

  // Traced: the same batch through 4 shards and 1 shard (admission with
  // backpressure, as bench_service), then the paired traced phase.
  const std::size_t batch = std::max<std::size_t>(16, 50 * o.seconds);
  std::vector<svc::InstanceSpec> specs;
  for (std::uint64_t i = 0; i < batch; ++i) {
    specs.push_back(svc_spec(i, instance_seed(o.seed, i)));
  }
  obs::Registry reg;
  const BatchPass wide = svc_batch(specs, shards, &reg);
  const BatchPass one = svc_batch(specs, 1, nullptr);
  r.attempted += 2 * batch;
  for (const BatchPass* b : {&wide, &one}) {
    for (const auto& res : b->results) {
      if (!svc_ok(res)) r.fail();
    }
  }
  SvcAgg s;
  s.speedup = ratio(one.wall, wide.wall);
  s.backpressure_per_instance =
      static_cast<double>(reg.counter("svc.backpressure_waits").value()) /
      static_cast<double>(batch);

  LayerAgg a;
  const double deadline = wall_s() + 0.4 * o.seconds;
  const double kernel_budget = 0.1 * o.seconds;
  for (std::size_t i = 0; i < batch && (i == 0 || wall_s() < deadline); ++i) {
    const core::LossyRunConfig& lc = specs[i].run;
    const double kernel_s =
        1e-9 * (a.subset_ns + a.combine_ns + a.hausdorff_ns);
    core::LossyRunOutput pub;
    const core::LossyRunOutput out = traced_instance(
        a, r, lc, workload_of(lc),
        [&] {
          pub = core::run_cc_lossy(lc);
          return pub.trace.get();
        },
        kernel_s < kernel_budget, 64);
    // The service is this workload's public entry point: its decisions
    // must match the traced run's too.
    if (!same_decisions(*wide.results.at(i).out.trace, *out.trace)) {
      r.fail();
      r.add("traced_decision_mismatch_seed",
            static_cast<double>(lc.base.seed), "seed");
    }
  }
  // The layers this workload bypasses (tracing off, no transport) are
  // measured alongside it, so that every layer is measured on a workload
  // BENCHMARK.json gates: tracing and checking on the same mix, transport
  // and codec on live-loopback-d2 waves.
  const double obs_deadline = wall_s() + 0.1 * o.seconds;
  for (std::size_t i = 0; i < batch && (i == 0 || wall_s() < obs_deadline);
       ++i) {
    ++r.attempted;
    measure_obs(a, specs[i].run, workload_of(specs[i].run), r);
  }
  const LiveAgg live = live_layers(o.seed, 0.2 * o.seconds, r);
  add_layers(r, &a, &live, &s);
  add_shares(r, a);
  return r;
}

}  // namespace chc::perfbench
