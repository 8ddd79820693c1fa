// Deterministic replay: a trace re-executed from its header must reproduce
// the original byte for byte, across crash and lossy regimes; any tampering
// is pinpointed to the first differing line.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/lossy.hpp"
#include "core/replay.hpp"
#include "core/workload.hpp"
#include "net/policy.hpp"
#include "obs/trace.hpp"

namespace chc::core {
namespace {

LossyRunConfig base_config(std::uint64_t seed) {
  LossyRunConfig lc;
  lc.base.cc = CCConfig{.n = 5, .f = 1, .d = 2, .eps = 0.15};
  lc.base.seed = seed;
  lc.base.crash_style = CrashStyle::kNone;
  lc.reliable = false;
  return lc;
}

std::vector<std::string> record(LossyRunConfig lc) {
  obs::MemorySink sink;
  obs::Tracer tracer(&sink);
  lc.tracer = &tracer;
  const Workload w = make_workload(
      lc.base.cc.n, lc.base.cc.f, lc.base.cc.d, lc.base.pattern, lc.base.seed,
      lc.base.cc.fault_model == FaultModel::kCrashIncorrectInputs);
  (void)run_cc_lossy_custom(lc, w);
  return sink.lines();
}

TEST(Replay, BitIdenticalOnCrashedRun) {
  LossyRunConfig lc = base_config(31);
  lc.base.crash_style = CrashStyle::kMidBroadcast;
  lc.base.delay = DelayRegime::kLaggedOneCorrect;
  const auto lines = record(lc);
  const ReplayResult rr = replay_trace_lines(lines);
  ASSERT_TRUE(rr.ran) << rr.error;
  EXPECT_TRUE(rr.identical)
      << "line " << rr.first_diff_line << "\n  original: " << rr.expected
      << "\n  replayed: " << rr.actual;
  EXPECT_EQ(rr.replayed_lines, lines.size());
}

TEST(Replay, BitIdenticalOnLossyShimmedRun) {
  LossyRunConfig lc = base_config(32);
  lc.base.crash_style = CrashStyle::kEarly;
  lc.policy = net::NetworkPolicy::lossy(0.20, 0.05, 0.15);
  lc.reliable = true;
  const auto lines = record(lc);
  const ReplayResult rr = replay_trace_lines(lines);
  ASSERT_TRUE(rr.ran) << rr.error;
  EXPECT_TRUE(rr.identical)
      << "line " << rr.first_diff_line << "\n  original: " << rr.expected
      << "\n  replayed: " << rr.actual;
}

TEST(Replay, PinpointsTamperedLine) {
  const auto original = record(base_config(33));
  ASSERT_GT(original.size(), 10u);

  std::vector<std::string> tampered = original;
  const std::size_t idx = tampered.size() / 2;
  // Re-serialize a parsed event with a nudged timestamp: still valid JSON,
  // but not what the re-execution produces.
  obs::TraceEvent e;
  ASSERT_TRUE(obs::parse_event(tampered[idx], e, nullptr));
  e.t += 0.125;
  tampered[idx] = obs::to_jsonl(e);
  ASSERT_NE(tampered[idx], original[idx]);

  const ReplayResult rr = replay_trace_lines(tampered);
  ASSERT_TRUE(rr.ran) << rr.error;
  EXPECT_FALSE(rr.identical);
  EXPECT_EQ(rr.first_diff_line, idx + 1);  // 1-based
  EXPECT_EQ(rr.expected, tampered[idx]);
  EXPECT_EQ(rr.actual, original[idx]);
}

TEST(Replay, DetectsTruncatedTrace) {
  auto lines = record(base_config(34));
  const std::size_t full = lines.size();
  lines.pop_back();  // drop the footer
  const ReplayResult rr = replay_trace_lines(lines);
  ASSERT_TRUE(rr.ran) << rr.error;
  EXPECT_FALSE(rr.identical);
  EXPECT_EQ(rr.first_diff_line, full);
  EXPECT_TRUE(rr.expected.empty());   // original side has no such line
  EXPECT_FALSE(rr.actual.empty());    // replay produced the footer
}

TEST(Replay, RejectsNonSimEnv) {
  auto lines = record(base_config(35));
  obs::TraceHeader h;
  ASSERT_TRUE(obs::parse_header(lines[0], h, nullptr));
  h.env = "live";
  lines[0] = obs::to_jsonl(h);
  const ReplayResult rr = replay_trace_lines(lines);
  EXPECT_FALSE(rr.ran);
  EXPECT_FALSE(rr.error.empty());
}

TEST(Replay, RejectsHeaderValuesARunWouldRefuse) {
  // Each edit names a configuration the run itself refuses with a
  // ContractViolation; replay must reject it at the header instead, with
  // an error that starts with the offending field.
  struct Edit {
    std::string field;
    void (*apply)(obs::TraceHeader&);
  };
  const std::vector<Edit> edits = {
      {"f", [](obs::TraceHeader& h) { h.f = 3; }},
      {"drop", [](obs::TraceHeader& h) { h.drop = 1.0; }},
      {"drop", [](obs::TraceHeader& h) { h.drop = 2.0; }},
      {"rto_max",
       [](obs::TraceHeader& h) {
         h.reliable = true;
         h.rto_max = net::kRto / 2;
       }},
  };
  const auto lines = record(base_config(37));
  obs::TraceHeader h;
  ASSERT_TRUE(obs::parse_header(lines[0], h, nullptr));
  ASSERT_EQ(h.n, 5u);
  for (const Edit& e : edits) {
    obs::TraceHeader edited = h;
    e.apply(edited);
    std::vector<std::string> tampered = lines;
    tampered[0] = obs::to_jsonl(edited);
    const ReplayResult rr = replay_trace_lines(tampered);
    EXPECT_FALSE(rr.ran) << e.field;
    EXPECT_EQ(rr.error.rfind(e.field + " ", 0), 0u)
        << e.field << ": " << rr.error;
  }
}

TEST(Replay, ConfigRoundTripsThroughHeader) {
  LossyRunConfig lc = base_config(36);
  lc.base.crash_style = CrashStyle::kLate;
  lc.base.delay = DelayRegime::kExponential;
  lc.policy = net::NetworkPolicy::lossy(0.10, 0.02, 0.05);
  lc.reliable = true;
  lc.rel.max_retries = 9;

  const Workload w = make_workload(
      lc.base.cc.n, lc.base.cc.f, lc.base.cc.d, lc.base.pattern, lc.base.seed,
      /*faulty_incorrect=*/true);
  CCConfig effective = lc.base.cc;
  effective.input_magnitude =
      std::max(effective.input_magnitude, w.correct_magnitude);
  const obs::TraceHeader h = make_trace_header(lc, effective, w);

  LossyRunConfig back;
  Workload wb;
  std::string error;
  ASSERT_TRUE(config_from_header(h, &back, &wb, &error)) << error;
  EXPECT_EQ(back.base.cc.n, lc.base.cc.n);
  EXPECT_EQ(back.base.cc.eps, lc.base.cc.eps);
  EXPECT_EQ(back.base.crash_style, lc.base.crash_style);
  EXPECT_EQ(back.base.delay, lc.base.delay);
  EXPECT_EQ(back.base.seed, lc.base.seed);
  EXPECT_EQ(back.policy.link.drop_rate, lc.policy.link.drop_rate);
  EXPECT_EQ(back.reliable, lc.reliable);
  EXPECT_EQ(back.rel.max_retries, lc.rel.max_retries);
  ASSERT_EQ(wb.inputs.size(), w.inputs.size());
  for (std::size_t i = 0; i < w.inputs.size(); ++i) {
    EXPECT_TRUE(wb.inputs[i] == w.inputs[i]);
  }
  EXPECT_EQ(wb.faulty, w.faulty);
  EXPECT_EQ(wb.correct_magnitude, w.correct_magnitude);
}

}  // namespace
}  // namespace chc::core
