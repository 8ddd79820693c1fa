// Byzantine behavior unit tests: the interceptor classes themselves, their
// trace announcements, and the honest receivers' input validation.
#include "bcc/behavior.hpp"

#include <gtest/gtest.h>

#include <any>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "rbc/slotcast.hpp"
#include "sim/adversary.hpp"
#include "sim/simulation.hpp"

namespace chc::bcc {
namespace {

TEST(Behavior, NamesAndIntMappingRoundTrip) {
  EXPECT_EQ(behavior_name(BehaviorKind::kEquivocate), "equivocate");
  EXPECT_EQ(behavior_name(BehaviorKind::kForgePoint), "forge_point");
  EXPECT_EQ(behavior_name(BehaviorKind::kSilent), "silent");
  EXPECT_EQ(behavior_name(BehaviorKind::kMalformed), "malformed");
  for (int v = 0; v <= 3; ++v) {
    BehaviorKind k;
    ASSERT_TRUE(behavior_from_int(v, k)) << v;
    EXPECT_EQ(static_cast<int>(k), v);
  }
  BehaviorKind k;
  EXPECT_FALSE(behavior_from_int(-1, k));
  EXPECT_FALSE(behavior_from_int(4, k));
}

TEST(Behavior, MakeBehaviorCoversEveryKind) {
  for (int v = 0; v <= 3; ++v) {
    BehaviorKind k;
    ASSERT_TRUE(behavior_from_int(v, k));
    EXPECT_NE(make_behavior({k, 0}, 4, 2, 3, nullptr), nullptr);
  }
}

/// Minimal host that broadcasts `count` slot-0 SlotMsgs on start and
/// counts everything it receives.
class Chatter final : public sim::Process {
 public:
  explicit Chatter(std::size_t count) : count_(count) {}
  void on_start(sim::Context& ctx) override {
    for (std::size_t i = 0; i < count_; ++i) {
      ctx.broadcast_others(
          rbc::kTagSlotInit,
          rbc::SlotMsg{ctx.self(), static_cast<std::uint32_t>(i), {0x42}});
    }
  }
  void on_message(sim::Context&, const sim::Message&) override {
    ++received_;
  }
  std::size_t received() const { return received_; }

 private:
  std::size_t count_;
  std::size_t received_ = 0;
};

/// Silencer param = k lets exactly k sends through, then suppresses all
/// traffic; the announcements land in the trace as kByzSend events.
TEST(Behavior, SilencerSuppressesAfterParamSends) {
  const std::size_t n = 4;
  obs::MemorySink sink;
  obs::Tracer tracer(&sink);
  for (std::uint64_t param : {std::uint64_t{0}, std::uint64_t{2}}) {
    sim::Simulation sim(n, 7, std::make_unique<sim::FixedDelay>(1.0), {});
    std::vector<Chatter*> peers;
    for (sim::ProcessId p = 0; p + 1 < n; ++p) {
      auto c = std::make_unique<Chatter>(0);
      peers.push_back(c.get());
      sim.add_process(std::move(c));
    }
    sim.add_process(std::make_unique<sim::AdversarialProcess>(
        std::make_unique<Chatter>(2),  // would send 2 * (n-1) = 6 messages
        make_behavior({BehaviorKind::kSilent, param}, n, 1, 3, &tracer)));
    EXPECT_TRUE(sim.run().quiescent);
    std::size_t delivered = 0;
    for (const Chatter* c : peers) delivered += c->received();
    EXPECT_EQ(delivered, param);
  }
  // 6 + 4 suppressed sends announced across the two runs.
  std::size_t byz_events = 0;
  for (const obs::TraceEvent& e : sink.events()) {
    if (e.kind == obs::EventKind::kByzSend) ++byz_events;
  }
  EXPECT_EQ(byz_events, 10u);
}

/// Honest SlotBroadcast host used to observe what behaviors put on the
/// wire from the receiving side.
class SlotHost final : public sim::Process {
 public:
  SlotHost(std::size_t n, std::size_t f, rbc::Bytes value)
      : n_(n), f_(f), value_(std::move(value)) {}
  void on_start(sim::Context& ctx) override {
    cast_ = std::make_unique<rbc::SlotBroadcast>(
        n_, f_, ctx.self(),
        [this](sim::Context&, sim::ProcessId origin, std::uint32_t slot,
               const rbc::Bytes& bytes) {
          delivered_.push_back({origin, slot, bytes});
        });
    cast_->broadcast(ctx, 0, value_);
  }
  void on_message(sim::Context& ctx, const sim::Message& msg) override {
    if (rbc::SlotBroadcast::handles(msg.tag)) cast_->on_message(ctx, msg);
  }
  const std::vector<rbc::SlotMsg>& delivered() const { return delivered_; }
  std::uint64_t rejected() const { return cast_->rejected(); }

 private:
  std::size_t n_, f_;
  rbc::Bytes value_;
  std::unique_ptr<rbc::SlotBroadcast> cast_;
  std::vector<rbc::SlotMsg> delivered_;
};

/// The equivocator feeds conflicting slot-0 bytes to half the receivers;
/// Bracha agreement must still converge every correct process on one value
/// for the equivocator's slot (or deliver nothing at all).
TEST(Behavior, EquivocatorCannotSplitSlotBroadcast) {
  const std::size_t n = 4, f = 1;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    sim::Simulation sim(n, seed, std::make_unique<sim::UniformDelay>(0.1, 1.0),
                        {});
    std::vector<SlotHost*> honest;
    for (sim::ProcessId p = 0; p + 1 < n; ++p) {
      auto h = std::make_unique<SlotHost>(n, f, rbc::Bytes{std::uint8_t(p)});
      honest.push_back(h.get());
      sim.add_process(std::move(h));
    }
    sim.add_process(std::make_unique<sim::AdversarialProcess>(
        std::make_unique<SlotHost>(n, f, rbc::Bytes{0xAB}),
        make_behavior({BehaviorKind::kEquivocate, 0}, n, 1, 3, nullptr)));
    EXPECT_TRUE(sim.run().quiescent);

    // Distinct values, counted as strings as SlotBroadcast keys them.
    std::set<std::string> byz_values;
    for (const SlotHost* h : honest) {
      for (const rbc::SlotMsg& m : h->delivered()) {
        if (m.origin == 3) {
          byz_values.insert(std::string(m.bytes.begin(), m.bytes.end()));
        }
        // Integrity for honest origins: exactly the broadcast byte.
        if (m.origin < 3) {
          EXPECT_EQ(m.bytes, rbc::Bytes{std::uint8_t(m.origin)})
              << "seed " << seed;
        }
      }
    }
    EXPECT_LE(byz_values.size(), 1u) << "seed " << seed;
  }
}

/// Every Mangler variant (bad any type, unknown tag, bogus origin/slot,
/// oversized bytes, NaN geometry) must be shed by validation — counted,
/// never delivered, never fatal.
TEST(Behavior, MangledTrafficIsRejectedNotDelivered) {
  const std::size_t n = 4, f = 1;
  sim::Simulation sim(n, 21, std::make_unique<sim::UniformDelay>(0.1, 1.0),
                      {});
  std::vector<SlotHost*> honest;
  for (sim::ProcessId p = 0; p + 1 < n; ++p) {
    auto h = std::make_unique<SlotHost>(n, f, rbc::Bytes{std::uint8_t(p)});
    honest.push_back(h.get());
    sim.add_process(std::move(h));
  }
  sim.add_process(std::make_unique<sim::AdversarialProcess>(
      std::make_unique<Chatter>(3),  // 9 sends, each mangled differently
      make_behavior({BehaviorKind::kMalformed, 0}, n, 2, 3, nullptr)));
  EXPECT_TRUE(sim.run().quiescent);

  std::uint64_t rejected = 0;
  for (const SlotHost* h : honest) {
    rejected += h->rejected();
    for (const rbc::SlotMsg& m : h->delivered()) {
      EXPECT_LT(m.origin, 3u);  // nothing of the mangler's survives
    }
  }
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace chc::bcc
