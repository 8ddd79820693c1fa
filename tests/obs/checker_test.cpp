// Offline checker end-to-end: traces produced by the harness are accepted
// (with real work done), hand-corrupted traces are rejected with the right
// invariant named, and malformed traces are reported as unparsed instead
// of aborting the checker.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/lossy.hpp"
#include "core/workload.hpp"
#include "geometry/vec.hpp"
#include "obs/checker.hpp"
#include "obs/trace.hpp"

namespace chc {
namespace {

core::LossyRunConfig base_config(std::uint64_t seed) {
  core::LossyRunConfig lc;
  lc.base.cc = core::CCConfig{.n = 5, .f = 1, .d = 2, .eps = 0.15};
  lc.base.seed = seed;
  lc.base.crash_style = core::CrashStyle::kNone;
  lc.reliable = false;
  return lc;
}

/// Runs the configuration with tracing on and returns the trace lines.
std::vector<std::string> record(core::LossyRunConfig lc) {
  obs::MemorySink sink;
  obs::Tracer tracer(&sink);
  lc.tracer = &tracer;
  const core::Workload w = core::make_workload(
      lc.base.cc.n, lc.base.cc.f, lc.base.cc.d, lc.base.pattern, lc.base.seed,
      lc.base.cc.fault_model == core::FaultModel::kCrashIncorrectInputs);
  const core::LossyRunOutput out = core::run_cc_lossy_custom(lc, w);
  EXPECT_TRUE(out.quiescent);
  EXPECT_TRUE(out.cert.all_decided);
  return sink.lines();
}

/// Index of the first line whose event matches `pred`, or npos.
template <typename Pred>
std::size_t find_event_line(const std::vector<std::string>& lines,
                            Pred&& pred, obs::TraceEvent* out = nullptr) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    obs::TraceEvent e;
    if (!obs::parse_event(lines[i], e, nullptr)) continue;
    if (pred(e)) {
      if (out != nullptr) *out = e;
      return i;
    }
  }
  return static_cast<std::size_t>(-1);
}

bool has_invariant(const obs::CheckReport& report, const std::string& name) {
  for (const auto& v : report.violations) {
    if (v.invariant == name) return true;
  }
  return false;
}

TEST(Checker, AcceptsCleanRun) {
  const auto lines = record(base_config(21));
  const obs::CheckReport report = obs::check_trace_lines(lines);
  EXPECT_TRUE(report.ok()) << (report.parsed
                                   ? obs::describe(report.violations.front())
                                   : report.parse_error);
  // "Accepted" must mean "checked": geometry work actually happened.
  EXPECT_GT(report.snapshots_checked, 0u);
  EXPECT_GT(report.containments_checked, 0u);
  EXPECT_GT(report.pairs_checked, 0u);
  EXPECT_GT(report.rounds_seen, 0u);
  EXPECT_TRUE(report.iz_checked);
}

TEST(Checker, NoHeaderKeySwitchesOffContractionOrTheIzFloor) {
  // Algorithm CC has one exact configuration: a header key the reader does
  // not know (here a vertex budget) is ignored, so the checker still
  // asserts Lemma 3 contraction and the I_Z floor on every pair.
  const auto lines = record(base_config(21));
  const obs::CheckReport plain = obs::check_trace_lines(lines);
  ASSERT_TRUE(plain.ok());
  ASSERT_GT(plain.pairs_checked, 0u);
  ASSERT_TRUE(plain.iz_checked);

  std::vector<std::string> edited = lines;
  ASSERT_EQ(edited[0].front(), '{');
  edited[0].insert(1, "\"max_polytope_vertices\":8,");
  const obs::CheckReport report = obs::check_trace_lines(edited);
  EXPECT_TRUE(report.ok()) << report.parse_error;
  EXPECT_EQ(report.pairs_checked, plain.pairs_checked);
  EXPECT_TRUE(report.iz_checked);
}

TEST(Checker, AcceptsCrashedLaggedRun) {
  // kMidBroadcast + kLaggedOneCorrect is the regime where correct round-0
  // views genuinely differ and h_i[t] ⊆ h_i[t-1] fails — the union-form
  // containment the checker verifies must still hold.
  core::LossyRunConfig lc = base_config(22);
  lc.base.crash_style = core::CrashStyle::kMidBroadcast;
  lc.base.delay = core::DelayRegime::kLaggedOneCorrect;
  const auto lines = record(lc);
  const obs::CheckReport report = obs::check_trace_lines(lines);
  EXPECT_TRUE(report.ok()) << (report.parsed
                                   ? obs::describe(report.violations.front())
                                   : report.parse_error);
}

TEST(Checker, AcceptsLaggedD3Runs) {
  // At d = 3, lagged delays make L combine distinct states, and some state
  // vertices land within 1e-6 of a sender hull's facet. Containment must
  // be decided to well below the checker's tolerance there: a
  // nearest-point search that resolves only to about that tolerance
  // rejected both runs (containment at rounds 5 and 7, and the I_Z floor).
  const std::pair<core::DelayRegime, std::uint64_t> runs[] = {
      {core::DelayRegime::kLaggedFaulty, 7},
      {core::DelayRegime::kLaggedOneCorrect, 11}};
  for (const auto& [delay, seed] : runs) {
    SCOPED_TRACE(seed);
    core::LossyRunConfig lc = base_config(seed);
    lc.base.cc.n = 8;
    lc.base.cc.d = 3;
    lc.base.delay = delay;
    const auto lines = record(lc);
    const obs::CheckReport report = obs::check_trace_lines(lines);
    EXPECT_TRUE(report.ok()) << (report.parsed
                                     ? obs::describe(report.violations.front())
                                     : report.parse_error);
    EXPECT_GT(report.containments_checked, 0u);
    EXPECT_TRUE(report.iz_checked);
  }
}

TEST(Checker, AcceptsLossyShimmedRun) {
  core::LossyRunConfig lc = base_config(23);
  lc.base.crash_style = core::CrashStyle::kEarly;
  lc.policy = net::NetworkPolicy::lossy(0.15, 0.05, 0.10);
  lc.reliable = true;
  const auto lines = record(lc);
  const obs::CheckReport report = obs::check_trace_lines(lines);
  EXPECT_TRUE(report.ok()) << (report.parsed
                                   ? obs::describe(report.violations.front())
                                   : report.parse_error);
}

TEST(Checker, RejectsInflatedRoundSnapshot) {
  std::vector<std::string> lines = record(base_config(24));
  obs::TraceEvent e;
  const std::size_t idx = find_event_line(
      lines,
      [](const obs::TraceEvent& ev) {
        return ev.kind == obs::EventKind::kRound && ev.round >= 2;
      },
      &e);
  ASSERT_NE(idx, static_cast<std::size_t>(-1));

  // Inflate the recorded h_i[t]: scale every vertex away from the origin.
  for (geo::Vec& v : e.verts) v = v * 3.0;
  lines[idx] = obs::to_jsonl(e);

  const obs::CheckReport report = obs::check_trace_lines(lines);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_invariant(report, "containment") ||
              has_invariant(report, "validity"))
      << obs::describe(report.violations.front());
  // The diagnostic points at the corrupted line (1-based).
  bool points_at_line = false;
  for (const auto& v : report.violations) {
    if (v.line == idx + 1) points_at_line = true;
  }
  EXPECT_TRUE(points_at_line);
}

TEST(Checker, RejectsTamperedDecision) {
  std::vector<std::string> lines = record(base_config(25));
  obs::TraceEvent e;
  const std::size_t idx = find_event_line(
      lines,
      [](const obs::TraceEvent& ev) {
        return ev.kind == obs::EventKind::kDecide;
      },
      &e);
  ASSERT_NE(idx, static_cast<std::size_t>(-1));

  const geo::Vec shift(std::vector<double>{2.0, 2.0});
  for (geo::Vec& v : e.verts) v = v + shift;
  lines[idx] = obs::to_jsonl(e);

  const obs::CheckReport report = obs::check_trace_lines(lines);
  EXPECT_FALSE(report.ok());
  // The shifted decision no longer matches the recorded round state, and
  // (being 2*sqrt(2) away from the others') breaches ε-agreement.
  EXPECT_TRUE(has_invariant(report, "structure") ||
              has_invariant(report, "eps-agreement"))
      << obs::describe(report.violations.front());
}

TEST(Checker, RejectsSeqRegression) {
  std::vector<std::string> lines = record(base_config(26));
  // Swapping two adjacent event records breaks the strictly-increasing seq
  // requirement for env == "sim" traces.
  ASSERT_GT(lines.size(), 4u);
  std::swap(lines[2], lines[3]);
  const obs::CheckReport report = obs::check_trace_lines(lines);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_invariant(report, "structure"));
}

TEST(Checker, RejectsTraceWithoutHeader) {
  std::vector<std::string> lines = record(base_config(27));
  lines.erase(lines.begin());
  const obs::CheckReport report = obs::check_trace_lines(lines);
  EXPECT_FALSE(report.parsed);
  EXPECT_FALSE(report.parse_error.empty());
}

TEST(Checker, RejectsRoundWithoutRoundStart) {
  std::vector<std::string> lines = record(base_config(28));
  obs::TraceEvent round_event;
  const std::size_t round_idx = find_event_line(
      lines,
      [](const obs::TraceEvent& ev) {
        return ev.kind == obs::EventKind::kRound && ev.round == 3;
      },
      &round_event);
  ASSERT_NE(round_idx, static_cast<std::size_t>(-1));
  const std::size_t start_idx = find_event_line(
      lines, [&round_event](const obs::TraceEvent& ev) {
        return ev.kind == obs::EventKind::kRoundStart &&
               ev.p == round_event.p && ev.round == round_event.round;
      });
  ASSERT_NE(start_idx, static_cast<std::size_t>(-1));
  ASSERT_LT(start_idx, round_idx);
  lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(start_idx));
  const obs::CheckReport report = obs::check_trace_lines(lines);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_invariant(report, "structure"));
}

/// Checks `lines` with the first `from` in line `at` replaced by `to`; the
/// edit must apply.
obs::CheckReport check_edited(std::vector<std::string> lines, std::size_t at,
                              const std::string& from, const std::string& to) {
  const std::size_t pos = lines.at(at).find(from);
  EXPECT_NE(pos, std::string::npos) << from << " not in line " << at;
  if (pos != std::string::npos) lines[at].replace(pos, from.size(), to);
  return obs::check_trace_lines(lines);
}

TEST(Checker, ReportsWrongJsonTypeInHeader) {
  const obs::CheckReport report =
      check_edited(record(base_config(7)), 0, "\"n\":5", "\"n\":\"five\"");
  EXPECT_FALSE(report.parsed);
  EXPECT_NE(report.parse_error.find("'n'"), std::string::npos)
      << report.parse_error;
}

TEST(Checker, ReportsWrongJsonTypeInEvent) {
  const obs::CheckReport report =
      check_edited(record(base_config(7)), 1, "\"seq\":0", "\"seq\":\"x\"");
  EXPECT_FALSE(report.parsed);
  EXPECT_NE(report.parse_error.find("'seq'"), std::string::npos)
      << report.parse_error;
}

TEST(Checker, ReportsNegativeProcessId) {
  // An integer field must hold an in-range integer, not a value that only
  // an undefined conversion could turn into a process id.
  const obs::CheckReport report =
      check_edited(record(base_config(7)), 1, "\"p\":0", "\"p\":-1");
  EXPECT_FALSE(report.parsed);
  EXPECT_NE(report.parse_error.find("'p'"), std::string::npos)
      << report.parse_error;
}

TEST(Checker, ReportsInputRowOfWrongDimension) {
  std::vector<std::string> lines = record(base_config(7));
  obs::TraceHeader h;
  ASSERT_TRUE(obs::parse_header(lines[0], h));
  h.inputs[0].resize(1);
  lines[0] = obs::to_jsonl(h);
  const obs::CheckReport report = obs::check_trace_lines(lines);
  EXPECT_FALSE(report.parsed);
  EXPECT_FALSE(report.parse_error.empty());
}

TEST(Checker, ReportsSnapshotVertexOfWrongDimension) {
  std::vector<std::string> lines = record(base_config(7));
  obs::TraceEvent e;
  const std::size_t idx = find_event_line(
      lines,
      [](const obs::TraceEvent& ev) {
        return ev.kind == obs::EventKind::kRound;
      },
      &e);
  ASSERT_NE(idx, static_cast<std::size_t>(-1));
  e.verts[0] = geo::Vec{e.verts[0][0]};
  lines[idx] = obs::to_jsonl(e);
  const obs::CheckReport report = obs::check_trace_lines(lines);
  EXPECT_FALSE(report.parsed);
  EXPECT_NE(report.parse_error.find("line " + std::to_string(idx + 1)),
            std::string::npos)
      << report.parse_error;
}

TEST(Checker, ReportsFaultBudgetNotBelowN) {
  // With f >= n, n - f wraps around and every view and sender set would
  // look too small; the header itself is malformed.
  const obs::CheckReport report =
      check_edited(record(base_config(7)), 0, "\"f\":1", "\"f\":9");
  EXPECT_FALSE(report.parsed);
  EXPECT_TRUE(report.violations.empty());
}

TEST(Checker, ReportsNegativeRelTol) {
  // A negative tolerance trips the geometry kernel's own contract checks.
  const obs::CheckReport report = check_edited(
      record(base_config(7)), 0, "\"rel_tol\":1e-09", "\"rel_tol\":-1");
  EXPECT_FALSE(report.parsed);
  EXPECT_NE(report.parse_error.find("rel_tol"), std::string::npos)
      << report.parse_error;
}

TEST(Checker, ReportsNonFiniteEps) {
  // eps = inf would silently switch ε-agreement off.
  const obs::CheckReport report = check_edited(
      record(base_config(7)), 0, "\"eps\":0.15", "\"eps\":1e999");
  EXPECT_FALSE(report.parsed);
  EXPECT_NE(report.parse_error.find("eps"), std::string::npos)
      << report.parse_error;
}

}  // namespace
}  // namespace chc
