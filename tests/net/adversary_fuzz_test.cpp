// Randomized adversary fuzzer: Algorithm CC under sampled (drop rate, dup
// rate, reorder rate, crash style, delay regime, seed) tuples.
//
// With the reliable-channel shim installed, every sampled lossy execution
// must terminate and earn the full certificate (validity + eps-agreement).
// With the shim disabled, the control group shows the injector genuinely
// bites: lossy executions fail to decide. The same shimmed stack on real
// concurrent nodes is covered by tests/transport/cluster_test.cpp.
#include <gtest/gtest.h>

#include <sstream>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/lossy.hpp"

namespace chc::net {
namespace {

struct FuzzCase {
  double drop = 0.0;
  double dup = 0.0;
  double reorder = 0.0;
  core::CrashStyle crash = core::CrashStyle::kNone;
  core::DelayRegime delay = core::DelayRegime::kUniform;
  std::uint64_t seed = 0;
};

/// Samples one adversary tuple. Rates stay inside the acceptance envelope
/// (drop <= 0.3, dup <= 0.1) and the fair-lossy requirement (drop < 1).
FuzzCase sample_case(std::uint64_t seed) {
  Rng rng(seed);
  FuzzCase c;
  c.seed = seed;
  c.drop = rng.uniform(0.02, 0.30);
  c.dup = rng.uniform(0.0, 0.10);
  c.reorder = rng.uniform(0.0, 0.20);
  static constexpr core::CrashStyle kStyles[] = {
      core::CrashStyle::kNone, core::CrashStyle::kEarly,
      core::CrashStyle::kMidBroadcast, core::CrashStyle::kLate};
  c.crash = kStyles[rng.uniform_int(0, 3)];
  c.delay = rng.bernoulli(0.5) ? core::DelayRegime::kUniform
                               : core::DelayRegime::kExponential;
  return c;
}

std::string describe(const FuzzCase& c) {
  std::ostringstream os;
  os << "seed=" << c.seed << " drop=" << c.drop << " dup=" << c.dup
     << " reorder=" << c.reorder
     << " crash=" << static_cast<int>(c.crash)
     << " delay=" << static_cast<int>(c.delay);
  return os.str();
}

core::LossyRunConfig make_config(const FuzzCase& c, bool reliable) {
  core::LossyRunConfig lc;
  lc.base.cc = core::CCConfig{.n = 5, .f = 1, .d = 2, .eps = 0.15};
  lc.base.pattern = core::InputPattern::kUniform;
  lc.base.crash_style = c.crash;
  lc.base.delay = c.delay;
  lc.base.seed = c.seed;
  lc.policy = NetworkPolicy::lossy(c.drop, c.dup, c.reorder);
  lc.reliable = reliable;
  return lc;
}

TEST(AdversaryFuzz, ShimmedCcSurvivesSampledAdversaries) {
  constexpr int kCases = 60;  // acceptance floor is 50 sampled tuples
  std::uint64_t total_drops = 0;
  std::uint64_t total_retransmits = 0;
  for (int i = 0; i < kCases; ++i) {
    const FuzzCase c = sample_case(5000 + static_cast<std::uint64_t>(i));
    const auto out = core::run_cc_lossy(make_config(c, /*reliable=*/true));
    ASSERT_TRUE(out.quiescent) << describe(c);
    EXPECT_TRUE(out.cert.all_decided) << describe(c);
    EXPECT_TRUE(out.cert.validity) << describe(c);
    EXPECT_TRUE(out.cert.agreement)
        << describe(c) << " d_H=" << out.cert.max_pairwise_hausdorff;
    total_drops += out.stats.net_dropped;
    total_retransmits += out.stats.retransmits;
  }
  // The adversary really was active, and the recovery layer really worked.
  EXPECT_GT(total_drops, 0u);
  EXPECT_GT(total_retransmits, 0u);
}

TEST(AdversaryFuzz, UnshimmedControlGroupFailsToDecide) {
  // Same sampled adversaries, shim disabled: injected faults hit the
  // protocol directly, so executions demonstrably violate delivery. Two
  // symptoms count: a quorum wait that never completes (dropped message,
  // nobody retransmits), and CCProcess's reliable-channel invariant firing
  // on a duplicated round message.
  int violated = 0;
  for (int i = 0; i < 10; ++i) {
    const FuzzCase c = sample_case(5000 + static_cast<std::uint64_t>(i));
    auto lc = make_config(c, /*reliable=*/false);
    lc.max_events = 2'000'000;  // lossy runs quiesce early; cap regardless
    try {
      const auto out = core::run_cc_lossy(lc);
      EXPECT_GT(out.stats.net_dropped, 0u) << describe(c);
      if (!out.cert.all_decided) ++violated;
    } catch (const ContractViolation&) {
      ++violated;  // duplicate delivery reached the protocol
    }
  }
  EXPECT_GE(violated, 1) << "no unshimmed lossy execution showed a failure";
}

}  // namespace
}  // namespace chc::net
