// Reliable-channel shim tests: exactly-once FIFO delivery restored over
// drop/dup/reorder faults, retransmission with backoff, crashed-peer
// abandonment (quiescence), passthrough with no faults, and the guard
// rails on reserved tags/tokens.
#include "net/reliable_channel.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "net/faulty_link.hpp"
#include "rbc/slotcast.hpp"
#include "sim/simulation.hpp"

namespace chc::net {
namespace {

constexpr int kTagData = 2;

/// Sends `burst` numbered messages to `target` on start; records deliveries.
class Burst final : public sim::Process {
 public:
  struct Log {
    std::vector<std::pair<sim::ProcessId, int>> deliveries;
    std::vector<sim::Time> times;  ///< when each delivery happened
  };

  Burst(Log* log, sim::ProcessId target, int burst)
      : log_(log), target_(target), burst_(burst) {}

  void on_start(sim::Context& ctx) override {
    for (int i = 1; i <= burst_; ++i) ctx.send(target_, kTagData, int{i});
  }
  void on_message(sim::Context& ctx, const sim::Message& msg) override {
    log_->deliveries.emplace_back(msg.from, std::any_cast<int>(*msg.payload));
    log_->times.push_back(ctx.now());
  }

 private:
  Log* log_;
  sim::ProcessId target_;
  int burst_;
};

struct ShimRun {
  sim::RunResult rr;
  ShimStats shims;
};

ShimRun run_shimmed_burst(const NetworkPolicy& policy, std::uint64_t seed,
                          int burst, Burst::Log* log,
                          ReliableParams params = {}) {
  sim::Simulation sim(2, seed, std::make_unique<sim::UniformDelay>(0.1, 1.0),
                      {});
  if (policy.enabled()) {
    sim.set_fault_model(std::make_unique<FaultyLinkModel>(policy));
  }
  std::vector<ReliableChannel*> shims;
  auto add = [&](std::unique_ptr<sim::Process> p) {
    auto shim = std::make_unique<ReliableChannel>(std::move(p), params);
    shims.push_back(shim.get());
    sim.add_process(std::move(shim));
  };
  add(std::make_unique<Burst>(log, 1, burst));
  add(std::make_unique<Burst>(log, 0, 0));
  ShimRun out;
  out.rr = sim.run();
  for (const auto* s : shims) out.shims += s->stats();
  return out;
}

TEST(ReliableChannel, ExactlyOnceFifoOverLossyNetwork) {
  Burst::Log log;
  const auto out = run_shimmed_burst(NetworkPolicy::lossy(0.3, 0.1, 0.2),
                                     21, 200, &log);
  EXPECT_TRUE(out.rr.quiescent);
  ASSERT_EQ(log.deliveries.size(), 200u) << "delivery not exactly-once";
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(log.deliveries[static_cast<std::size_t>(i)].second, i + 1)
        << "FIFO violated at position " << i;
  }
  EXPECT_GT(out.rr.stats.net_dropped, 0u) << "injector never bit";
  EXPECT_GT(out.shims.retransmits, 0u);
  EXPECT_EQ(out.shims.retransmit_by_tag.at(kTagData), out.shims.retransmits);
  EXPECT_EQ(out.shims.channels_abandoned, 0u);
}

/// A payload that counts its copies (moves are free).
struct Counted {
  static inline int copies = 0;
  int value = 0;
  explicit Counted(int v) : value(v) {}
  Counted(const Counted& o) : value(o.value) { ++copies; }
  Counted(Counted&& o) noexcept : value(o.value) {}
};

TEST(ReliableChannel, PayloadIsSharedAcrossRetransmitsDupsAndReordering) {
  // The shim wraps a payload once where it enters (CtxWrap) and the DATA
  // frames, their duplicates and retransmissions, the reorder buffer and
  // the delivered Message all share it: at most one copy per logical send
  // (the entry copy a broadcast_others(const std::any&) must take).
  constexpr int kSends = 40;
  class Sender final : public sim::Process {
   public:
    void on_start(sim::Context& ctx) override {
      if (ctx.self() != 0) return;
      for (int i = 1; i <= kSends; ++i) {
        if (i % 2 == 0) {
          ctx.broadcast_others(kTagData, Counted{i});
        } else {
          ctx.send(1, kTagData, Counted{i});
          ctx.send(2, kTagData, Counted{i});
        }
      }
    }
    void on_message(sim::Context& ctx, const sim::Message& msg) override {
      got_[ctx.self()].push_back(
          std::any_cast<const Counted&>(*msg.payload).value);
    }
    std::vector<int>* got_ = nullptr;
  };

  std::vector<std::vector<int>> got(3);
  sim::Simulation sim(3, 5, std::make_unique<sim::UniformDelay>(0.1, 1.0),
                      {});
  sim.set_fault_model(std::make_unique<FaultyLinkModel>(
      NetworkPolicy::lossy(0.3, 0.1, 0.2)));
  std::vector<ReliableChannel*> shims;
  for (int p = 0; p < 3; ++p) {
    auto sender = std::make_unique<Sender>();
    sender->got_ = got.data();
    auto shim = std::make_unique<ReliableChannel>(std::move(sender),
                                                  ReliableParams{});
    shims.push_back(shim.get());
    sim.add_process(std::move(shim));
  }
  Counted::copies = 0;
  ASSERT_TRUE(sim.run().quiescent);
  ShimStats stats;
  for (const ReliableChannel* s : shims) stats += s->stats();
  EXPECT_GT(stats.retransmits, 0u);
  EXPECT_GT(stats.buffered_out_of_order, 0u);
  for (std::size_t p = 1; p < 3; ++p) {
    ASSERT_EQ(got[p].size(), static_cast<std::size_t>(kSends)) << p;
    for (int i = 0; i < kSends; ++i) {
      EXPECT_EQ(got[p][static_cast<std::size_t>(i)], i + 1) << p;
    }
  }
  // kSends / 2 broadcasts take one copy each; the sends take none.
  EXPECT_LE(Counted::copies, kSends / 2);
}

TEST(ReliableChannel, WithoutShimLossyNetworkViolatesDelivery) {
  // The control experiment: same network, no recovery layer — delivery is
  // demonstrably violated (messages lost and/or duplicated).
  Burst::Log log;
  sim::Simulation sim(2, 21, std::make_unique<sim::UniformDelay>(0.1, 1.0),
                      {});
  sim.set_fault_model(std::make_unique<FaultyLinkModel>(
      NetworkPolicy::lossy(0.3, 0.1, 0.2)));
  sim.add_process(std::make_unique<Burst>(&log, 1, 200));
  sim.add_process(std::make_unique<Burst>(&log, 0, 0));
  const auto rr = sim.run();
  EXPECT_TRUE(rr.quiescent);
  EXPECT_NE(log.deliveries.size(), 200u);
  EXPECT_GT(rr.stats.net_dropped, 0u);
}

TEST(ReliableChannel, PassthroughWithoutFaults) {
  // Clean network: exactly-once FIFO with zero recovery work, and the run
  // still quiesces (retransmit ticks stop once everything is acked).
  Burst::Log log;
  const auto out = run_shimmed_burst(NetworkPolicy{}, 3, 50, &log);
  EXPECT_TRUE(out.rr.quiescent);
  ASSERT_EQ(log.deliveries.size(), 50u);
  EXPECT_EQ(out.shims.retransmits, 0u);
  EXPECT_EQ(out.shims.dups_suppressed, 0u);
  EXPECT_EQ(out.shims.delivered, 50u);
}

TEST(ReliableChannel, HeavyLossStillRecovers) {
  Burst::Log log;
  const auto out =
      run_shimmed_burst(NetworkPolicy::lossy(0.5, 0.2, 0.3), 99, 60, &log);
  EXPECT_TRUE(out.rr.quiescent);
  ASSERT_EQ(log.deliveries.size(), 60u);
  for (int i = 0; i < 60; ++i) {
    EXPECT_EQ(log.deliveries[static_cast<std::size_t>(i)].second, i + 1);
  }
  EXPECT_GT(out.shims.dups_suppressed + out.shims.buffered_out_of_order, 0u);
}

TEST(ReliableChannel, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    Burst::Log log;
    const auto out = run_shimmed_burst(NetworkPolicy::lossy(0.3, 0.1, 0.1),
                                       seed, 80, &log);
    return std::make_pair(out.shims.retransmits, out.rr.stats.end_time);
  };
  const auto a = run(31);
  const auto b = run(31);
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

TEST(ReliableChannel, CrashedPeerIsAbandonedAndRunQuiesces) {
  Burst::Log log;
  sim::CrashSchedule cs;
  cs.set(1, sim::CrashPlan::at(0.05));  // receiver dies before any delivery
  sim::Simulation sim(2, 13, std::make_unique<sim::UniformDelay>(0.1, 1.0),
                      cs);
  sim.set_fault_model(
      std::make_unique<FaultyLinkModel>(NetworkPolicy::lossy(0.2)));
  ReliableParams fast;
  fast.rto = 0.5;
  fast.rto_max = 2.0;
  fast.max_retries = 6;
  auto shim = std::make_unique<ReliableChannel>(
      std::make_unique<Burst>(&log, 1, 5), fast);
  const ReliableChannel* sender = shim.get();
  sim.add_process(std::move(shim));
  sim.add_process(std::make_unique<ReliableChannel>(
      std::make_unique<Burst>(&log, 0, 0), fast));
  const auto rr = sim.run(200'000);
  EXPECT_TRUE(rr.quiescent) << "retransmission to a dead peer never ended";
  EXPECT_EQ(sender->stats().channels_abandoned, 1u);
  EXPECT_TRUE(log.deliveries.empty());
}

TEST(ReliableChannel, SilentPeerIsProbedWithItsOldestFrameOnly) {
  // A crashed receiver never acks. After two unanswered retransmissions of
  // the oldest frame only that frame keeps being retransmitted, so the dead
  // peer costs the head's retry budget plus at most two retransmissions of
  // every other frame — and the give-up still waits for the head's budget.
  constexpr int kFrames = 20;
  Burst::Log log;
  sim::CrashSchedule cs;
  cs.set(1, sim::CrashPlan::at(0.05));
  sim::Simulation sim(2, 13, std::make_unique<sim::UniformDelay>(0.1, 1.0),
                      cs);
  const ReliableParams params;
  auto shim = std::make_unique<ReliableChannel>(
      std::make_unique<Burst>(&log, 1, kFrames), params);
  const ReliableChannel* sender = shim.get();
  sim.add_process(std::move(shim));
  sim.add_process(std::make_unique<ReliableChannel>(
      std::make_unique<Burst>(&log, 0, 0), params));
  const auto rr = sim.run(200'000);
  EXPECT_TRUE(rr.quiescent);
  EXPECT_TRUE(log.deliveries.empty());
  EXPECT_EQ(sender->stats().channels_abandoned, 1u);
  EXPECT_LE(sender->stats().retransmits,
            params.max_retries + 2 * (kFrames - 1));
  // One deadline timer: a fire per probe, not a scan of the whole window.
  EXPECT_LE(rr.stats.timers_fired, params.max_retries + 2 * kFrames);
  // The give-up horizon is the head's: ~260 units after its first send.
  EXPECT_GE(rr.stats.end_time, 200.0);
}

TEST(ReliableChannel, SilentPeerGetsItsWindowAtOnceAfterAHeal) {
  // 20 frames go into a full cut that heals at t = 40. While the receiver
  // is silent only the oldest frame is probed; the first ack after the heal
  // releases the rest of the window at once instead of leaving each frame
  // to its own backed-off deadline.
  constexpr int kFrames = 20;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    PolicySchedule schedule;
    schedule.add(0.0, NetworkPolicy::lossy(1.0));
    schedule.add(40.0, NetworkPolicy{});
    Burst::Log log;
    sim::Simulation sim(2, seed,
                        std::make_unique<sim::UniformDelay>(0.1, 1.0), {});
    sim.set_fault_model(std::make_unique<FaultyLinkModel>(schedule));
    auto shim = std::make_unique<ReliableChannel>(
        std::make_unique<Burst>(&log, 1, kFrames), ReliableParams{});
    const ReliableChannel* sender = shim.get();
    sim.add_process(std::move(shim));
    sim.add_process(std::make_unique<ReliableChannel>(
        std::make_unique<Burst>(&log, 0, 0), ReliableParams{}));
    const auto rr = sim.run();
    EXPECT_TRUE(rr.quiescent) << seed;
    ASSERT_EQ(log.deliveries.size(), static_cast<std::size_t>(kFrames))
        << seed;
    for (int i = 0; i < kFrames; ++i) {
      EXPECT_EQ(log.deliveries[static_cast<std::size_t>(i)].second, i + 1)
          << seed;
    }
    EXPECT_EQ(sender->stats().channels_abandoned, 0u) << seed;
    // Through the cut only the oldest frame is probed, and the window
    // follows the first ack after the heal instead of its own deadlines.
    EXPECT_LT(sender->stats().retransmits, 80u) << seed;
    EXPECT_LT(log.times.back(), 60.0) << seed;
  }
}

TEST(ReliableChannel, ReplyInTheSameCallbackCarriesTheAck) {
  // A peer that answers every message from on_message acks it with the
  // reply's piggybacked cum_ack: no standalone ack on a clean network.
  constexpr int kTagReply = 3;
  constexpr int kFrames = 50;
  class Echo final : public sim::Process {
   public:
    void on_start(sim::Context&) override {}
    void on_message(sim::Context& ctx, const sim::Message& msg) override {
      ctx.send(msg.from, kTagReply, std::any_cast<int>(*msg.payload));
    }
  };
  Burst::Log log;
  sim::Simulation sim(2, 3, std::make_unique<sim::UniformDelay>(0.1, 1.0),
                      {});
  sim.add_process(std::make_unique<ReliableChannel>(
      std::make_unique<Burst>(&log, 1, kFrames), ReliableParams{}));
  auto echo =
      std::make_unique<ReliableChannel>(std::make_unique<Echo>(),
                                        ReliableParams{});
  const ReliableChannel* replier = echo.get();
  sim.add_process(std::move(echo));
  const auto rr = sim.run();
  EXPECT_TRUE(rr.quiescent);
  ASSERT_EQ(log.deliveries.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(log.deliveries[static_cast<std::size_t>(i)].second, i + 1);
  }
  EXPECT_EQ(replier->stats().delivered, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(replier->stats().acks_sent, 0u);
  EXPECT_EQ(replier->stats().retransmits, 0u);
}

TEST(ReliableChannel, SlotBroadcastRunsUnchangedOverLossyLinks) {
  // The Bracha reliable-broadcast layer, wrapped unmodified: every host
  // delivers every honest slot-0 value despite 25% drops.
  class Host final : public sim::Process {
   public:
    Host(std::size_t n, std::size_t f) : n_(n), f_(f) {}
    void on_start(sim::Context& ctx) override {
      cast_ = std::make_unique<rbc::SlotBroadcast>(
          n_, f_, ctx.self(),
          [this](sim::Context&, sim::ProcessId, std::uint32_t,
                 const rbc::Bytes&) { ++delivered_; });
      cast_->broadcast(ctx, 0, rbc::Bytes{std::uint8_t(ctx.self())});
    }
    void on_message(sim::Context& ctx, const sim::Message& msg) override {
      cast_->on_message(ctx, msg);
    }
    std::size_t delivered_count() const { return delivered_; }

   private:
    std::size_t n_, f_;
    std::unique_ptr<rbc::SlotBroadcast> cast_;
    std::size_t delivered_ = 0;
  };

  const std::size_t n = 4, f = 1;
  sim::Simulation sim(n, 17, std::make_unique<sim::UniformDelay>(0.1, 1.0),
                      {});
  sim.set_fault_model(
      std::make_unique<FaultyLinkModel>(NetworkPolicy::lossy(0.25)));
  std::vector<ReliableChannel*> shims;
  for (sim::ProcessId p = 0; p < n; ++p) {
    auto shim = std::make_unique<ReliableChannel>(
        std::make_unique<Host>(n, f), ReliableParams{});
    shims.push_back(shim.get());
    sim.add_process(std::move(shim));
  }
  const auto rr = sim.run();
  EXPECT_TRUE(rr.quiescent);
  for (const auto* shim : shims) {
    EXPECT_EQ(static_cast<const Host&>(shim->inner()).delivered_count(), n);
  }
}

TEST(ReliableChannel, PeerRestartTriggersEpochReset) {
  // The receiver crash-recovers at t=5 with a fresh shim (epoch 1, empty
  // receive stream). The sender must detect the newer epoch, reset the
  // channel (renumber + resend the unacked window) and get both the unacked
  // remainder and a post-recovery burst through exactly once, in order.
  class TwoBursts final : public sim::Process {
   public:
    explicit TwoBursts(Burst::Log* log) : log_(log) {}
    void on_start(sim::Context& ctx) override {
      for (int i = 1; i <= 5; ++i) ctx.send(1, kTagData, int{i});
      ctx.set_timer(10.0, 1);
    }
    void on_message(sim::Context&, const sim::Message& msg) override {
      log_->deliveries.emplace_back(msg.from,
                                    std::any_cast<int>(*msg.payload));
    }
    void on_timer(sim::Context& ctx, int) override {
      for (int i = 6; i <= 10; ++i) ctx.send(1, kTagData, int{i});
    }

   private:
    Burst::Log* log_;
  };

  Burst::Log log;
  sim::CrashSchedule cs;
  cs.set(1, sim::CrashPlan::window(0.5, 5.0));
  sim::Simulation sim(2, 37, std::make_unique<sim::UniformDelay>(0.1, 1.0),
                      cs);
  auto sender = std::make_unique<ReliableChannel>(
      std::make_unique<TwoBursts>(&log), ReliableParams{});
  const ReliableChannel* sender_shim = sender.get();
  sim.add_process(std::move(sender));
  sim.add_process(std::make_unique<ReliableChannel>(
      std::make_unique<Burst>(&log, 0, 0), ReliableParams{}));
  const ReliableChannel* recovered_shim = nullptr;
  sim.set_process_factory([&](sim::ProcessId, std::size_t incarnation,
                              std::unique_ptr<sim::Process>)
                              -> std::unique_ptr<sim::Process> {
    auto shim = std::make_unique<ReliableChannel>(
        std::make_unique<Burst>(&log, 0, 0), ReliableParams{}, nullptr,
        static_cast<std::uint32_t>(incarnation));
    recovered_shim = shim.get();
    return shim;
  });
  const auto rr = sim.run();
  EXPECT_TRUE(rr.quiescent);
  ASSERT_NE(recovered_shim, nullptr);
  EXPECT_EQ(recovered_shim->epoch(), 1u);
  EXPECT_GE(sender_shim->stats().channel_resets, 1u);
  // Exactly once, in order, across the restart: 1..10.
  ASSERT_EQ(log.deliveries.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(log.deliveries[static_cast<std::size_t>(i)].second, i + 1)
        << "delivery order broken across the epoch reset at " << i;
  }
  EXPECT_EQ(sender_shim->current_backoff(), 0.0);  // nothing outstanding
}

TEST(ReliableChannel, ReservedTagAndTokenRejected) {
  class BadTag final : public sim::Process {
   public:
    void on_start(sim::Context& ctx) override {
      ctx.send(0, kTagRelData, int{1});
    }
    void on_message(sim::Context&, const sim::Message&) override {}
  };
  sim::Simulation sim(1, 1, std::make_unique<sim::FixedDelay>(1.0), {});
  sim.add_process(std::make_unique<ReliableChannel>(
      std::make_unique<BadTag>(), ReliableParams{}));
  EXPECT_THROW(sim.run(), ContractViolation);

  class BadToken final : public sim::Process {
   public:
    void on_start(sim::Context& ctx) override {
      ctx.set_timer(1.0, kRelTickToken);
    }
    void on_message(sim::Context&, const sim::Message&) override {}
  };
  sim::Simulation sim2(1, 1, std::make_unique<sim::FixedDelay>(1.0), {});
  sim2.add_process(std::make_unique<ReliableChannel>(
      std::make_unique<BadToken>(), ReliableParams{}));
  EXPECT_THROW(sim2.run(), ContractViolation);
}

TEST(ReliableChannel, InvalidParamsRejected) {
  auto inner = [] { return std::make_unique<Burst>(nullptr, 0, 0); };
  ReliableParams p;
  p.rto = 0.0;
  EXPECT_THROW(ReliableChannel(inner(), p), ContractViolation);
  p = {};
  p.backoff = 0.5;
  EXPECT_THROW(ReliableChannel(inner(), p), ContractViolation);
  p = {};
  p.rto_max = 0.1;
  EXPECT_THROW(ReliableChannel(inner(), p), ContractViolation);
  p = {};
  p.jitter = 1.0;
  EXPECT_THROW(ReliableChannel(inner(), p), ContractViolation);
  EXPECT_THROW(ReliableChannel(nullptr, ReliableParams{}),
               ContractViolation);
}

}  // namespace
}  // namespace chc::net
