// One verification oracle, two front-ends. The typed events a run wrote
// to its MemorySink give exactly the report the JSONL lines give, and
// core::certify (the TraceCollector front-end) gives the decision-level
// verdicts and the I_Z measure the checker gives on the same run.
#include <gtest/gtest.h>

#include <string>

#include "bcc/presets.hpp"
#include "core/lossy.hpp"
#include "core/workload.hpp"
#include "nemesis/presets.hpp"
#include "obs/checker.hpp"

namespace chc {
namespace {

void expect_same_report(const obs::CheckReport& typed,
                        const obs::CheckReport& lines,
                        const std::string& what) {
  EXPECT_EQ(typed.parsed, lines.parsed) << what;
  EXPECT_EQ(typed.ok(), lines.ok()) << what;
  ASSERT_EQ(typed.violations.size(), lines.violations.size()) << what;
  for (std::size_t i = 0; i < typed.violations.size(); ++i) {
    EXPECT_EQ(obs::describe(typed.violations[i]),
              obs::describe(lines.violations[i]))
        << what;
  }
  EXPECT_EQ(obs::summary_line(typed), obs::summary_line(lines)) << what;
  EXPECT_EQ(typed.events, lines.events) << what;
  EXPECT_EQ(typed.snapshots_checked, lines.snapshots_checked) << what;
  EXPECT_EQ(typed.containments_checked, lines.containments_checked) << what;
  EXPECT_EQ(typed.containments_skipped, lines.containments_skipped) << what;
  EXPECT_EQ(typed.pairs_checked, lines.pairs_checked) << what;
  EXPECT_EQ(typed.rounds_seen, lines.rounds_seen) << what;
  EXPECT_EQ(typed.recoveries, lines.recoveries) << what;
  EXPECT_EQ(typed.over_budget, lines.over_budget) << what;
  EXPECT_EQ(typed.iz_checked, lines.iz_checked) << what;
  EXPECT_EQ(typed.iz_measure, lines.iz_measure) << what;
  EXPECT_EQ(typed.decisions.validity, lines.decisions.validity) << what;
  EXPECT_EQ(typed.decisions.agreement, lines.decisions.agreement) << what;
  EXPECT_EQ(typed.decisions.optimality, lines.decisions.optimality) << what;
  EXPECT_EQ(typed.decisions.max_pairwise_hausdorff,
            lines.decisions.max_pairwise_hausdorff)
      << what;
}

void expect_certificate_matches(const core::Certificate& cert,
                                const obs::CheckReport& report,
                                const std::string& what) {
  ASSERT_TRUE(report.parsed) << what << ": " << report.parse_error;
  EXPECT_EQ(cert.validity, report.decisions.validity) << what;
  EXPECT_EQ(cert.agreement, report.decisions.agreement) << what;
  EXPECT_EQ(cert.optimality, report.decisions.optimality) << what;
  EXPECT_DOUBLE_EQ(cert.iz_measure, report.iz_measure) << what;
}

TEST(Oracle, TypedEventsMatchLinesOnEveryPreset) {
  for (const nemesis::Preset& p : nemesis::presets()) {
    const nemesis::ScenarioResult r = nemesis::run_preset(p, 7);
    expect_same_report(r.check, obs::check_trace_lines(r.trace_lines),
                       "nemesis " + p.name);
  }
  for (const bcc::ByzPreset& p : bcc::byz_presets()) {
    const bcc::ByzRunResult r = bcc::run_byz_preset(p, 1);
    expect_same_report(r.check, obs::check_trace_lines(r.trace_lines),
                       "byz " + p.name);
  }
}

/// Runs `lc` traced; returns the certified output and the checker's report
/// on the run's JSONL lines.
core::LossyRunOutput run_and_check(core::LossyRunConfig lc,
                                   obs::CheckReport& report) {
  obs::MemorySink sink;
  obs::Tracer tracer(&sink);
  lc.tracer = &tracer;
  const core::CCConfig& cc = lc.base.cc;
  const core::Workload w = core::make_workload(
      cc.n, cc.f, cc.d, lc.base.pattern, lc.base.seed,
      cc.fault_model == core::FaultModel::kCrashIncorrectInputs);
  core::LossyRunOutput out = core::run_cc_lossy_custom(lc, w);
  report = obs::check_trace_lines(sink.lines());
  return out;
}

TEST(Oracle, CertifyMatchesCheckerAcrossCrashStylesAndLinks) {
  for (const core::CrashStyle style :
       {core::CrashStyle::kNone, core::CrashStyle::kEarly,
        core::CrashStyle::kMidBroadcast, core::CrashStyle::kLate}) {
    for (const bool lossy : {false, true}) {
      for (const std::uint64_t seed : {7ull, 11ull, 13ull}) {
        core::LossyRunConfig lc;
        lc.base.cc = core::CCConfig{.n = 5, .f = 1, .d = 2, .eps = 0.15};
        lc.base.crash_style = style;
        lc.base.seed = seed;
        lc.reliable = lossy;
        if (lossy) lc.policy = net::NetworkPolicy::lossy(0.15, 0.05, 0.10);
        obs::CheckReport report;
        const core::LossyRunOutput out = run_and_check(lc, report);
        const std::string what = "style " +
                                 std::to_string(static_cast<int>(style)) +
                                 (lossy ? " lossy" : " reliable") +
                                 " seed " + std::to_string(seed);
        EXPECT_TRUE(report.ok()) << what;
        EXPECT_TRUE(out.cert.validity && out.cert.agreement &&
                    out.cert.optimality)
            << what;
        expect_certificate_matches(out.cert, report, what);
      }
    }
  }
}

TEST(Oracle, CertifyMatchesCheckerInThreeDimensions) {
  core::LossyRunConfig lc;
  lc.base.cc = core::CCConfig{.n = 6, .f = 1, .d = 3, .eps = 0.15};
  lc.base.seed = 7;
  lc.reliable = false;
  obs::CheckReport report;
  const core::LossyRunOutput out = run_and_check(lc, report);
  EXPECT_TRUE(report.ok());
  expect_certificate_matches(out.cert, report, "d = 3");
}

TEST(Oracle, CertifyMatchesCheckerOnEveryNemesisPreset) {
  for (const nemesis::Preset& p : nemesis::presets()) {
    const nemesis::ScenarioResult r = nemesis::run_preset(p, 7);
    expect_certificate_matches(
        r.cert, obs::check_trace_lines(r.trace_lines), p.name);
  }
}

}  // namespace
}  // namespace chc
