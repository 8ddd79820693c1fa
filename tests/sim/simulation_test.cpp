#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "net/faulty_link.hpp"

namespace chc::sim {
namespace {

constexpr int kTagPing = 1;
constexpr int kTagData = 2;

/// Records every delivery it sees; optionally broadcasts on start.
class Recorder final : public Process {
 public:
  struct Log {
    std::vector<std::pair<ProcessId, int>> deliveries;  // (from, payload int)
    std::vector<Time> times;
    std::vector<int> timer_tokens;
  };

  Recorder(Log* log, bool broadcast_on_start, int burst = 0)
      : log_(log), broadcast_(broadcast_on_start), burst_(burst) {}

  void on_start(Context& ctx) override {
    if (broadcast_) ctx.broadcast_others(kTagPing, int{0});
    for (int i = 1; i <= burst_; ++i) {
      // Burst of sequenced messages to process (self+1) % n for FIFO tests.
      ctx.send((ctx.self() + 1) % ctx.n(), kTagData, int{i});
    }
  }

  void on_message(Context& ctx, const Message& msg) override {
    log_->deliveries.emplace_back(msg.from, std::any_cast<int>(*msg.payload));
    log_->times.push_back(ctx.now());
  }

  void on_timer(Context&, int token) override {
    log_->timer_tokens.push_back(token);
  }

 private:
  Log* log_;
  bool broadcast_;
  int burst_;
};

class TimerProc final : public Process {
 public:
  explicit TimerProc(Recorder::Log* log) : log_(log) {}
  void on_start(Context& ctx) override {
    ctx.set_timer(5.0, 42);
    ctx.set_timer(1.0, 7);
  }
  void on_message(Context&, const Message&) override {}
  void on_timer(Context& ctx, int token) override {
    log_->timer_tokens.push_back(token);
    log_->times.push_back(ctx.now());
  }

 private:
  Recorder::Log* log_;
};

TEST(Simulation, BroadcastReachesAllOthers) {
  const std::size_t n = 5;
  std::vector<Recorder::Log> logs(n);
  Simulation sim(n, 1, std::make_unique<UniformDelay>(0.1, 1.0), {});
  for (std::size_t p = 0; p < n; ++p) {
    sim.add_process(std::make_unique<Recorder>(&logs[p], p == 0));
  }
  const auto rr = sim.run();
  EXPECT_TRUE(rr.quiescent);
  EXPECT_EQ(rr.stats.messages_sent, n - 1);
  EXPECT_EQ(rr.stats.messages_delivered, n - 1);
  EXPECT_TRUE(logs[0].deliveries.empty());  // no self-delivery
  for (std::size_t p = 1; p < n; ++p) {
    ASSERT_EQ(logs[p].deliveries.size(), 1u);
    EXPECT_EQ(logs[p].deliveries[0].first, 0u);
  }
}

TEST(Simulation, FifoPerChannel) {
  // Process 0 sends a burst 1..20 to process 1; arrival order must match.
  const std::size_t n = 2;
  std::vector<Recorder::Log> logs(n);
  Simulation sim(n, 7, std::make_unique<UniformDelay>(0.1, 5.0), {});
  sim.add_process(std::make_unique<Recorder>(&logs[0], false, 20));
  sim.add_process(std::make_unique<Recorder>(&logs[1], false, 0));
  // note: Recorder with burst sends to (self+1)%n = 1... process 1 also
  // bursts to 0 with burst 0 (nothing).
  sim.run();
  ASSERT_EQ(logs[1].deliveries.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(logs[1].deliveries[static_cast<std::size_t>(i)].second, i + 1)
        << "FIFO violated at position " << i;
  }
  // Delivery times strictly increasing on the channel.
  for (std::size_t i = 1; i < logs[1].times.size(); ++i) {
    EXPECT_GT(logs[1].times[i], logs[1].times[i - 1]);
  }
}

TEST(Simulation, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    std::vector<Recorder::Log> logs(4);
    Simulation sim(4, seed, std::make_unique<ExponentialDelay>(0.3), {});
    for (std::size_t p = 0; p < 4; ++p) {
      sim.add_process(std::make_unique<Recorder>(&logs[p], true, 3));
    }
    sim.run();
    std::vector<std::pair<ProcessId, int>> all;
    for (const auto& l : logs) {
      all.insert(all.end(), l.deliveries.begin(), l.deliveries.end());
    }
    return std::make_pair(all, sim.stats().end_time);
  };
  const auto a = run_once(99);
  const auto b = run_once(99);
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
  const auto c = run_once(100);
  EXPECT_NE(a.second, c.second);  // different seed, different schedule
}

TEST(Simulation, CrashAtTimeStopsDeliveryAndSending) {
  // Process 0 bursts 10 messages at t=0 to process 1; process 1 crashes at
  // t = 0 (before any delivery, since delays >= 0.1): all dropped.
  std::vector<Recorder::Log> logs(2);
  CrashSchedule cs;
  cs.set(1, CrashPlan::at(0.05));
  Simulation sim(2, 3, std::make_unique<UniformDelay>(0.1, 1.0), cs);
  sim.add_process(std::make_unique<Recorder>(&logs[0], false, 10));
  sim.add_process(std::make_unique<Recorder>(&logs[1], false, 0));
  const auto rr = sim.run();
  EXPECT_TRUE(sim.crashed(1));
  EXPECT_FALSE(sim.crashed(0));
  EXPECT_EQ(logs[1].deliveries.size(), 0u);
  EXPECT_EQ(rr.stats.messages_dropped, 10u);
  EXPECT_DOUBLE_EQ(sim.crash_time(1), 0.05);
}

TEST(Simulation, CrashAfterSendsTruncatesBroadcast) {
  // Process 0 broadcasts to 5 others but crashes after 2 sends: exactly the
  // first two ids (1, 2) receive it — the mid-broadcast partial delivery.
  const std::size_t n = 6;
  std::vector<Recorder::Log> logs(n);
  CrashSchedule cs;
  cs.set(0, CrashPlan::after(2));
  Simulation sim(n, 11, std::make_unique<UniformDelay>(0.1, 1.0), cs);
  for (std::size_t p = 0; p < n; ++p) {
    sim.add_process(std::make_unique<Recorder>(&logs[p], p == 0));
  }
  sim.run();
  EXPECT_TRUE(sim.crashed(0));
  EXPECT_EQ(sim.sends_of(0), 2u);
  EXPECT_EQ(logs[1].deliveries.size(), 1u);
  EXPECT_EQ(logs[2].deliveries.size(), 1u);
  for (std::size_t p = 3; p < n; ++p) {
    EXPECT_EQ(logs[p].deliveries.size(), 0u) << "process " << p;
  }
}

TEST(Simulation, CrashAfterZeroSendsSilencesProcess) {
  const std::size_t n = 3;
  std::vector<Recorder::Log> logs(n);
  CrashSchedule cs;
  cs.set(0, CrashPlan::after(0));
  Simulation sim(n, 13, std::make_unique<UniformDelay>(0.1, 1.0), cs);
  for (std::size_t p = 0; p < n; ++p) {
    sim.add_process(std::make_unique<Recorder>(&logs[p], p == 0));
  }
  const auto rr = sim.run();
  EXPECT_EQ(rr.stats.messages_sent, 0u);
  EXPECT_GE(rr.stats.sends_suppressed, 1u);
}

TEST(Simulation, CrashRecoverRebuildsThroughFactory) {
  // Process 1 crashes at t=0.05 (losing the whole burst from 0) and
  // recovers at t=5 with fresh state; process 0 sends a second burst at
  // t=10 via a timer — the new incarnation receives it.
  class SecondBurst final : public Process {
   public:
    explicit SecondBurst(Recorder::Log* log) : log_(log) {}
    void on_start(Context& ctx) override {
      for (int i = 1; i <= 5; ++i) ctx.send(1, kTagData, int{i});
      ctx.set_timer(10.0, 1);
    }
    void on_message(Context&, const Message&) override {}
    void on_timer(Context& ctx, int) override {
      for (int i = 6; i <= 10; ++i) ctx.send(1, kTagData, int{i});
      (void)log_;
    }

   private:
    Recorder::Log* log_;
  };

  std::vector<Recorder::Log> logs(2);
  std::size_t factory_calls = 0;
  CrashSchedule cs;
  cs.set(1, CrashPlan::window(0.05, 5.0));
  Simulation sim(2, 19, std::make_unique<UniformDelay>(0.1, 1.0), cs);
  sim.add_process(std::make_unique<SecondBurst>(&logs[0]));
  sim.add_process(std::make_unique<Recorder>(&logs[1], false, 0));
  sim.set_process_factory([&](ProcessId p, std::size_t incarnation,
                              std::unique_ptr<Process> retired)
                              -> std::unique_ptr<Process> {
    ++factory_calls;
    EXPECT_EQ(p, 1u);
    EXPECT_EQ(incarnation, 1u);
    EXPECT_NE(retired, nullptr);
    return std::make_unique<Recorder>(&logs[1], false, 0);
  });
  const auto rr = sim.run();
  EXPECT_TRUE(rr.quiescent);
  EXPECT_EQ(factory_calls, 1u);
  EXPECT_EQ(rr.stats.recoveries, 1u);
  EXPECT_FALSE(sim.crashed(1));  // recovered
  EXPECT_EQ(sim.incarnation(1), 1u);
  EXPECT_DOUBLE_EQ(sim.crash_time(1), 0.05);  // first crash remembered
  // First burst lost to the crash, second burst fully delivered.
  ASSERT_EQ(logs[1].deliveries.size(), 5u);
  EXPECT_EQ(logs[1].deliveries.front().second, 6);
  EXPECT_EQ(rr.stats.messages_dropped, 5u);
}

TEST(Simulation, RecoveryRequiresFactory) {
  Recorder::Log log;
  CrashSchedule cs;
  cs.set(0, CrashPlan::window(1.0, 2.0));
  Simulation sim(1, 1, std::make_unique<FixedDelay>(1.0), cs);
  sim.add_process(std::make_unique<TimerProc>(&log));
  EXPECT_THROW(sim.run(), ContractViolation);
}

TEST(Simulation, RecoveryWithoutPriorCrashIsNoop) {
  // The plan's crash trigger is an after_sends budget the process never
  // exhausts, so when recover_at fires there is nothing to recover from:
  // no factory call, no recovery counted, incarnation stays 0.
  std::vector<Recorder::Log> logs(2);
  CrashSchedule cs;
  cs.set(1, CrashPlan::after(100).then_recover_at(5.0));
  Simulation sim(2, 23, std::make_unique<UniformDelay>(0.1, 1.0), cs);
  sim.add_process(std::make_unique<Recorder>(&logs[0], false, 3));
  sim.add_process(std::make_unique<Recorder>(&logs[1], false, 0));
  sim.set_process_factory([&](ProcessId, std::size_t,
                              std::unique_ptr<Process>)
                              -> std::unique_ptr<Process> {
    ADD_FAILURE() << "factory must not run for a process that never crashed";
    return std::make_unique<Recorder>(&logs[1], false, 0);
  });
  const auto rr = sim.run();
  EXPECT_TRUE(rr.quiescent);
  EXPECT_EQ(rr.stats.recoveries, 0u);
  EXPECT_EQ(sim.incarnation(1), 0u);
  EXPECT_FALSE(sim.crashed(1));
  EXPECT_EQ(logs[1].deliveries.size(), 3u);  // burst fully delivered
}

TEST(Simulation, TimersFireInOrder) {
  Recorder::Log log;
  Simulation sim(1, 5, std::make_unique<FixedDelay>(1.0), {});
  sim.add_process(std::make_unique<TimerProc>(&log));
  const auto rr = sim.run();
  EXPECT_TRUE(rr.quiescent);
  ASSERT_EQ(log.timer_tokens.size(), 2u);
  EXPECT_EQ(log.timer_tokens[0], 7);   // t = 1
  EXPECT_EQ(log.timer_tokens[1], 42);  // t = 5
  EXPECT_DOUBLE_EQ(log.times[0], 1.0);
  EXPECT_DOUBLE_EQ(log.times[1], 5.0);
}

TEST(Simulation, EventBudgetStopsRun) {
  // Two processes ping-pong forever.
  class PingPong final : public Process {
   public:
    void on_start(Context& ctx) override {
      if (ctx.self() == 0) ctx.send(1, kTagPing, int{0});
    }
    void on_message(Context& ctx, const Message& msg) override {
      ctx.send(msg.from, kTagPing, std::any_cast<int>(*msg.payload) + 1);
    }
  };
  Simulation sim(2, 17, std::make_unique<FixedDelay>(1.0), {});
  sim.add_process(std::make_unique<PingPong>());
  sim.add_process(std::make_unique<PingPong>());
  const auto rr = sim.run(1000);
  EXPECT_FALSE(rr.quiescent);
  EXPECT_GE(rr.stats.events_processed, 1000u);
}

TEST(Simulation, SameTimeEventsPopInPushOrder) {
  // FixedDelay puts deliveries on distinct channels and timers at one
  // instant; ties must resolve in push order. The second instant is pushed
  // after six pops, so the slab hands those freed slots back out of order.
  struct Log {
    std::vector<std::pair<Time, std::string>> events;
  };
  class Tied final : public Process {
   public:
    explicit Tied(Log* log) : log_(log) {}
    void on_start(Context& ctx) override {
      if (ctx.self() == 2) {
        ctx.set_timer(1.0, 3);
        ctx.set_timer(1.0, 4);
        return;
      }
      ctx.send(2, kTagData, static_cast<int>(10 + ctx.self()));
      ctx.set_timer(1.0, 1 + static_cast<int>(ctx.self()));
    }
    void on_message(Context& ctx, const Message& msg) override {
      record(ctx, "recv" + std::to_string(std::any_cast<int>(*msg.payload)));
    }
    void on_timer(Context& ctx, int token) override {
      record(ctx, "timer" + std::to_string(token));
      if (token != 4) return;
      ctx.set_timer(1.0, 5);
      ctx.send(0, kTagData, 20);
      ctx.set_timer(1.0, 6);
      ctx.send(1, kTagData, 21);
    }

   private:
    void record(Context& ctx, std::string what) {
      log_->events.emplace_back(
          ctx.now(), "p" + std::to_string(ctx.self()) + ":" + what);
    }
    Log* log_;
  };

  Log log;
  Simulation sim(3, 4, std::make_unique<FixedDelay>(1.0), {});
  for (int p = 0; p < 3; ++p) sim.add_process(std::make_unique<Tied>(&log));
  ASSERT_TRUE(sim.run().quiescent);
  const std::vector<std::pair<Time, std::string>> expected = {
      {1.0, "p2:recv10"}, {1.0, "p0:timer1"},  {1.0, "p2:recv11"},
      {1.0, "p1:timer2"}, {1.0, "p2:timer3"},  {1.0, "p2:timer4"},
      {2.0, "p2:timer5"}, {2.0, "p0:recv20"},  {2.0, "p2:timer6"},
      {2.0, "p1:recv21"},
  };
  EXPECT_EQ(log.events, expected);
}

TEST(Simulation, ResumedRunMatchesUninterruptedRun) {
  // Stopping on the event budget leaves events pending; resuming must
  // finish exactly where one uninterrupted run does.
  auto build = [](Simulation& sim, std::vector<Recorder::Log>& logs) {
    for (std::size_t p = 0; p < logs.size(); ++p) {
      sim.add_process(std::make_unique<Recorder>(&logs[p], true, 3));
    }
  };
  std::vector<Recorder::Log> whole_logs(4);
  Simulation whole(4, 23, std::make_unique<UniformDelay>(0.1, 1.0), {});
  build(whole, whole_logs);
  const RunResult whole_rr = whole.run();
  ASSERT_TRUE(whole_rr.quiescent);

  std::vector<Recorder::Log> split_logs(4);
  Simulation split(4, 23, std::make_unique<UniformDelay>(0.1, 1.0), {});
  build(split, split_logs);
  ASSERT_FALSE(split.run(9).quiescent);
  const RunResult split_rr = split.run();
  ASSERT_TRUE(split_rr.quiescent);

  EXPECT_EQ(split_rr.stats, whole_rr.stats);
  EXPECT_GT(whole_rr.stats.events_processed, 9u);
  for (std::size_t p = 0; p < whole_logs.size(); ++p) {
    EXPECT_EQ(split_logs[p].deliveries, whole_logs[p].deliveries) << p;
    EXPECT_EQ(split_logs[p].times, whole_logs[p].times) << p;
  }
}

/// A payload that counts its copies (moves are free): the zero-copy
/// contract is that a payload is copied at most once, where it enters the
/// simulator, and shared after that.
struct Counted {
  static inline int copies = 0;
  int value = 0;
  explicit Counted(int v) : value(v) {}
  Counted(const Counted& o) : value(o.value) { ++copies; }
  Counted(Counted&& o) noexcept : value(o.value) {}
};

TEST(Simulation, BroadcastSharesOnePayloadAcrossRecipientsAndDuplicates) {
  struct Seen {
    std::vector<const std::any*> objects;
    std::vector<int> values;
  };
  class Caster final : public Process {
   public:
    explicit Caster(Seen* seen) : seen_(seen) {}
    void on_start(Context& ctx) override {
      if (ctx.self() == 0) ctx.broadcast_others(kTagData, Counted{7});
    }
    void on_message(Context&, const Message& msg) override {
      seen_->objects.push_back(msg.payload.get());
      seen_->values.push_back(
          std::any_cast<const Counted&>(*msg.payload).value);
    }

   private:
    Seen* seen_;
  };

  Seen seen;
  Simulation sim(5, 3, std::make_unique<UniformDelay>(0.1, 1.0), {});
  sim.set_fault_model(std::make_unique<net::FaultyLinkModel>(
      net::NetworkPolicy::lossy(0.0, 0.5)));
  for (int p = 0; p < 5; ++p) sim.add_process(std::make_unique<Caster>(&seen));
  Counted::copies = 0;
  const RunResult rr = sim.run();
  ASSERT_TRUE(rr.quiescent);
  ASSERT_GT(rr.stats.net_duplicated, 0u) << "pick a seed that duplicates";
  ASSERT_EQ(seen.objects.size(), 4 + rr.stats.net_duplicated);
  // The one copy is broadcast_others(const std::any&) taking its own.
  EXPECT_LE(Counted::copies, 1);
  for (std::size_t i = 0; i < seen.objects.size(); ++i) {
    EXPECT_EQ(seen.objects[i], seen.objects[0]) << "delivery " << i;
    EXPECT_EQ(seen.values[i], 7);
  }
}

TEST(Simulation, RequiresAllProcessesRegistered) {
  Simulation sim(2, 1, std::make_unique<FixedDelay>(1.0), {});
  sim.add_process(std::make_unique<TimerProc>(nullptr));
  EXPECT_THROW(sim.run(), ContractViolation);
}

TEST(DelayModels, RangesRespected) {
  Rng rng(1);
  UniformDelay u(0.5, 2.0);
  ExponentialDelay e(1.0);
  FixedDelay fx(3.0);
  for (int i = 0; i < 200; ++i) {
    const Time du = u.delay(0, 1, 0.0, rng);
    EXPECT_GE(du, 0.5);
    EXPECT_LT(du, 2.0);
    EXPECT_GT(e.delay(0, 1, 0.0, rng), 0.0);
    EXPECT_DOUBLE_EQ(fx.delay(0, 1, 0.0, rng), 3.0);
  }
}

TEST(DelayModels, LaggedSetMultiplies) {
  // A window that never ends lags the set for good.
  Rng rng(2);
  PhasedLagDelay lag(std::make_unique<FixedDelay>(1.0), {2}, 50.0,
                     std::numeric_limits<Time>::infinity());
  EXPECT_DOUBLE_EQ(lag.delay(0, 1, 0.0, rng), 1.0);
  EXPECT_DOUBLE_EQ(lag.delay(2, 1, 0.0, rng), 50.0);  // from lagged
  EXPECT_DOUBLE_EQ(lag.delay(0, 2, 1e9, rng), 50.0);  // to lagged
}

TEST(DelayModels, PhasedLagExpiresAfterWindow) {
  Rng rng(3);
  PhasedLagDelay lag(std::make_unique<FixedDelay>(1.0), {1}, 10.0,
                     /*until=*/5.0);
  EXPECT_DOUBLE_EQ(lag.delay(1, 0, 0.0, rng), 10.0);   // lagged, in window
  EXPECT_DOUBLE_EQ(lag.delay(0, 1, 4.9, rng), 10.0);   // to lagged, in window
  EXPECT_DOUBLE_EQ(lag.delay(1, 0, 5.0, rng), 1.0);    // window over
  EXPECT_DOUBLE_EQ(lag.delay(0, 2, 0.0, rng), 1.0);    // not lagged
  EXPECT_THROW(PhasedLagDelay(nullptr, {}, 2.0, 1.0), ContractViolation);
  EXPECT_THROW(
      PhasedLagDelay(std::make_unique<FixedDelay>(1.0), {}, 2.0, 0.0),
      ContractViolation);
}

TEST(DelayModels, InvalidParamsRejected) {
  EXPECT_THROW(FixedDelay(0.0), ContractViolation);
  EXPECT_THROW(UniformDelay(0.0, 1.0), ContractViolation);
  EXPECT_THROW(UniformDelay(2.0, 1.0), ContractViolation);
  EXPECT_THROW(ExponentialDelay(-1.0), ContractViolation);
  EXPECT_THROW(
      PhasedLagDelay(std::make_unique<FixedDelay>(1.0), {}, 0.5, 1.0),
      ContractViolation);  // a lag factor below 1 would speed messages up
}

}  // namespace
}  // namespace chc::sim
