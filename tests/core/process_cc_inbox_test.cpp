// Regression tests for CCProcess inbox hygiene: a late RoundMsg for an
// already-completed round must not re-create an inbox entry that nothing
// ever erases, and the buffer must be empty once the process decides.
// Drives a single CCProcess directly through a recording mock context
// (naive round 0 keeps the wire format trivial).
#include <gtest/gtest.h>

#include <vector>

#include "core/process_cc.hpp"
#include "geometry/intern.hpp"
#include "geometry/polytope.hpp"
#include "sim/process.hpp"

namespace chc::core {
namespace {

struct SentMessage {
  sim::ProcessId to;
  int tag;
};

/// Minimal Context: records sends, everything else is inert.
class MockContext final : public sim::Context {
 public:
  MockContext(sim::ProcessId self, std::size_t n) : self_(self), n_(n) {}

  sim::ProcessId self() const override { return self_; }
  std::size_t n() const override { return n_; }
  sim::Time now() const override { return 0.0; }
  void send(sim::ProcessId to, int tag, std::any) override {
    sent.push_back({to, tag});
  }
  void broadcast_others(int tag, const std::any&) override {
    for (sim::ProcessId p = 0; p < n_; ++p) {
      if (p != self_) sent.push_back({p, tag});
    }
  }
  void set_timer(sim::Time, int) override {}
  Rng& rng() override { return rng_; }

  std::vector<SentMessage> sent;

 private:
  sim::ProcessId self_;
  std::size_t n_;
  Rng rng_{42};
};

CCConfig naive_config() {
  CCConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.d = 1;
  cfg.eps = 2.0;  // t_end = 3: small but multi-round
  cfg.round0 = Round0Policy::kNaiveCollect;
  cfg.fault_model = FaultModel::kCrashCorrectInputs;
  return cfg;
}

void deliver_input(CCProcess& p, MockContext& ctx, sim::ProcessId from,
                   double x) {
  sim::Message m{from, ctx.self(), kTagNaiveInput,
                 sim::make_payload(geo::Vec{x})};
  p.on_message(ctx, m);
}

void deliver_round(CCProcess& p, MockContext& ctx, sim::ProcessId from,
                   std::size_t round, double lo, double hi) {
  RoundMsg rm{round,
              geo::intern(geo::Polytope::from_points({geo::Vec{lo},
                                                      geo::Vec{hi}}))};
  sim::Message m{from, ctx.self(), kTagRound, sim::make_payload(rm)};
  p.on_message(ctx, m);
}

TEST(CCInbox, StaleRoundMessagesAreDroppedAndDecisionClearsBuffer) {
  const CCConfig cfg = naive_config();
  ASSERT_EQ(cfg.t_end(), 3u);
  MockContext ctx(0, cfg.n);
  CCProcess p(cfg, geo::Vec{0.0}, nullptr);

  p.on_start(ctx);
  EXPECT_EQ(p.buffered_rounds(), 0u);  // still collecting round-0 inputs

  // Third input reaches the n-f threshold: round 1 begins (own message
  // buffered, broadcast sent).
  deliver_input(p, ctx, 1, 0.5);
  deliver_input(p, ctx, 2, 1.0);
  EXPECT_EQ(p.buffered_rounds(), 1u);

  // A fast peer is already in round 2: buffered for later.
  deliver_round(p, ctx, 3, 2, 0.0, 1.0);
  EXPECT_EQ(p.buffered_rounds(), 2u);

  // Two round-1 messages complete round 1; round 2 already holds
  // {self, 3}, so only rounds {2} stay buffered.
  deliver_round(p, ctx, 1, 1, 0.0, 0.5);
  deliver_round(p, ctx, 2, 1, 0.5, 1.0);
  EXPECT_EQ(p.buffered_rounds(), 1u);
  EXPECT_EQ(p.completed_rounds(), 2u);  // h[0], h[1]

  // Regression: the slow peer's round-1 copy arrives after round 1
  // completed. It used to re-create inbox_[1] permanently.
  deliver_round(p, ctx, 3, 1, 0.0, 1.0);
  EXPECT_EQ(p.buffered_rounds(), 1u) << "stale round re-created an inbox row";

  // One more round-2 message completes round 2; round 3 begins.
  deliver_round(p, ctx, 1, 2, 0.0, 1.0);
  EXPECT_EQ(p.completed_rounds(), 3u);
  EXPECT_FALSE(p.decision().has_value());

  // Round 3 = t_end completes: decision reached, buffer fully cleared.
  deliver_round(p, ctx, 1, 3, 0.0, 1.0);
  deliver_round(p, ctx, 2, 3, 0.0, 1.0);
  ASSERT_TRUE(p.decision().has_value());
  EXPECT_EQ(p.buffered_rounds(), 0u) << "decision must clear the inbox";

  // Post-decision stragglers (stale or current-round) stay dropped.
  deliver_round(p, ctx, 3, 2, 0.0, 1.0);
  deliver_round(p, ctx, 3, 3, 0.0, 1.0);
  EXPECT_EQ(p.buffered_rounds(), 0u);

  // Sanity on the traffic: one naive-input broadcast + one broadcast per
  // completed round, each to n-1 peers.
  EXPECT_EQ(ctx.sent.size(), (1 + cfg.t_end()) * (cfg.n - 1));
}

TEST(CCInbox, FutureRoundMessagesStayBufferedUntilReached) {
  const CCConfig cfg = naive_config();
  MockContext ctx(0, cfg.n);
  CCProcess p(cfg, geo::Vec{0.25}, nullptr);
  p.on_start(ctx);

  // Messages far ahead of the current round arrive before round 0 is even
  // done — they must buffer, not crash or complete anything.
  deliver_round(p, ctx, 2, 3, 0.0, 1.0);
  deliver_round(p, ctx, 3, 3, 0.0, 1.0);
  EXPECT_EQ(p.buffered_rounds(), 1u);
  EXPECT_EQ(p.completed_rounds(), 0u);

  deliver_input(p, ctx, 1, 0.75);
  deliver_input(p, ctx, 2, 0.5);  // round 0 done, round 1 begins
  EXPECT_EQ(p.buffered_rounds(), 2u);

  // Completing rounds 1 and 2 immediately cascades into round 3, which the
  // two buffered messages complete: the process decides in one burst.
  deliver_round(p, ctx, 1, 1, 0.0, 1.0);
  deliver_round(p, ctx, 2, 1, 0.0, 1.0);
  deliver_round(p, ctx, 1, 2, 0.0, 1.0);
  deliver_round(p, ctx, 2, 2, 0.0, 1.0);
  ASSERT_TRUE(p.decision().has_value());
  EXPECT_EQ(p.buffered_rounds(), 0u);
}

}  // namespace
}  // namespace chc::core
