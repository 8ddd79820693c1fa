// Fault-injection layer tests: seeded determinism, configured rates
// approximately realized, per-channel overrides, FIFO-breaking reordering,
// and stat accounting in the simulator.
#include "net/faulty_link.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "sim/simulation.hpp"

namespace chc::net {
namespace {

constexpr int kTagData = 2;

/// Sends `burst` numbered messages to `target` on start; records deliveries.
class Burst final : public sim::Process {
 public:
  struct Log {
    std::vector<std::pair<sim::ProcessId, int>> deliveries;
  };

  Burst(Log* log, sim::ProcessId target, int burst)
      : log_(log), target_(target), burst_(burst) {}

  void on_start(sim::Context& ctx) override {
    for (int i = 1; i <= burst_; ++i) ctx.send(target_, kTagData, int{i});
  }
  void on_message(sim::Context&, const sim::Message& msg) override {
    log_->deliveries.emplace_back(msg.from, std::any_cast<int>(*msg.payload));
  }

 private:
  Log* log_;
  sim::ProcessId target_;
  int burst_;
};

sim::RunResult run_burst(const NetworkPolicy& policy, std::uint64_t seed,
                         int burst, Burst::Log* log) {
  sim::Simulation sim(2, seed, std::make_unique<sim::UniformDelay>(0.1, 1.0),
                      {});
  sim.set_fault_model(std::make_unique<FaultyLinkModel>(policy));
  sim.add_process(std::make_unique<Burst>(log, 1, burst));
  sim.add_process(std::make_unique<Burst>(log, 0, 0));
  return sim.run();
}

TEST(FaultyLink, DropRateApproximatelyRealized) {
  Burst::Log log;
  const auto rr = run_burst(NetworkPolicy::lossy(0.3), 42, 1000, &log);
  EXPECT_TRUE(rr.quiescent);
  EXPECT_EQ(rr.stats.messages_sent, 1000u);
  // 3-sigma band around 300 expected drops.
  EXPECT_GT(rr.stats.net_dropped, 250u);
  EXPECT_LT(rr.stats.net_dropped, 350u);
  EXPECT_EQ(rr.stats.messages_delivered,
            rr.stats.messages_sent - rr.stats.net_dropped);
  EXPECT_EQ(rr.stats.dropped_by_tag.at(kTagData), rr.stats.net_dropped);
  EXPECT_EQ(log.deliveries.size(), rr.stats.messages_delivered);
}

TEST(FaultyLink, DuplicatesDeliverExtraCopies) {
  Burst::Log log;
  const auto rr = run_burst(NetworkPolicy::lossy(0.0, 0.5), 43, 500, &log);
  EXPECT_GT(rr.stats.net_duplicated, 180u);
  EXPECT_LT(rr.stats.net_duplicated, 320u);
  EXPECT_EQ(rr.stats.messages_delivered,
            rr.stats.messages_sent + rr.stats.net_duplicated);
  EXPECT_EQ(rr.stats.duplicated_by_tag.at(kTagData),
            rr.stats.net_duplicated);
  EXPECT_EQ(rr.stats.net_dropped, 0u);
}

TEST(FaultyLink, ReorderingBreaksFifo) {
  Burst::Log log;
  const auto rr = run_burst(NetworkPolicy::lossy(0.0, 0.0, 0.5), 44, 200,
                            &log);
  EXPECT_GT(rr.stats.net_reordered, 0u);
  ASSERT_EQ(log.deliveries.size(), 200u);
  bool out_of_order = false;
  for (std::size_t i = 1; i < log.deliveries.size(); ++i) {
    if (log.deliveries[i].second < log.deliveries[i - 1].second) {
      out_of_order = true;
      break;
    }
  }
  EXPECT_TRUE(out_of_order) << "reordering injected but FIFO survived";
}

TEST(FaultyLink, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    Burst::Log log;
    const auto rr =
        run_burst(NetworkPolicy::lossy(0.25, 0.1, 0.1), seed, 300, &log);
    return std::make_pair(log.deliveries, rr.stats.net_dropped);
  };
  const auto a = run(7);
  const auto b = run(7);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  const auto c = run(8);
  EXPECT_NE(a.first, c.first);  // different seed, different fault pattern
}

TEST(FaultyLink, PerChannelOverridesApply) {
  // Only channel 0->1 is lossy; 0->2 stays clean.
  NetworkPolicy policy;
  policy.set_channel(0, 1, LinkFaults(0.5, 0.0, 0.0));
  std::vector<Burst::Log> logs(3);

  sim::Simulation sim(3, 5, std::make_unique<sim::UniformDelay>(0.1, 1.0),
                      {});
  sim.set_fault_model(std::make_unique<FaultyLinkModel>(policy));
  // Process 0 bursts to 1; a second burst goes to 2 via a dedicated sender
  // class reusing Burst with a different target.
  class TwoTargets final : public sim::Process {
   public:
    void on_start(sim::Context& ctx) override {
      for (int i = 1; i <= 200; ++i) {
        ctx.send(1, kTagData, int{i});
        ctx.send(2, kTagData, int{i});
      }
    }
    void on_message(sim::Context&, const sim::Message&) override {}
  };
  sim.add_process(std::make_unique<TwoTargets>());
  sim.add_process(std::make_unique<Burst>(&logs[1], 0, 0));
  sim.add_process(std::make_unique<Burst>(&logs[2], 0, 0));
  sim.run();
  EXPECT_LT(logs[1].deliveries.size(), 160u);   // lossy channel bit
  EXPECT_EQ(logs[2].deliveries.size(), 200u);   // clean channel intact
}

TEST(FaultyLink, InvalidRatesRejected) {
  EXPECT_THROW(FaultyLinkModel(NetworkPolicy::lossy(1.0)),
               ContractViolation);  // not fair-lossy
  NetworkPolicy bad;
  bad.link.reorder_delay_min = 2.0;
  bad.link.reorder_delay_max = 1.0;
  EXPECT_THROW(FaultyLinkModel{bad}, ContractViolation);
}

TEST(ChannelPolicy, ConstructorClampsAndValidates) {
  // Rates outside [0, 1] are clamped at construction.
  const ChannelPolicy clamped(-0.1, 1.5, 0.3);
  EXPECT_EQ(clamped.drop_rate, 0.0);
  EXPECT_EQ(clamped.dup_rate, 1.0);
  EXPECT_EQ(clamped.reorder_rate, 0.3);
  // NetworkPolicy::lossy routes through the same constructor.
  EXPECT_EQ(NetworkPolicy::lossy(-0.1).link.drop_rate, 0.0);
  EXPECT_EQ(NetworkPolicy::lossy(0.0, 1.5).link.dup_rate, 1.0);
  // The reorder-delay range is validated once, at construction.
  EXPECT_THROW(ChannelPolicy(0.1, 0.0, 0.0, 2.0, 1.0), ContractViolation);
  EXPECT_THROW(ChannelPolicy(0.1, 0.0, 0.0, 0.0, 1.0), ContractViolation);
  const ChannelPolicy ok(0.1, 0.0, 0.0, 0.5, 0.5);
  EXPECT_EQ(ok.reorder_delay_min, ok.reorder_delay_max);
}

TEST(PolicySchedule, PhasesActivateByTime) {
  PolicySchedule sched;
  sched.add(0.0, NetworkPolicy::lossy(0.1));
  NetworkPolicy cut;
  cut.set_channel(0, 1, ChannelPolicy(1.0, 0.0, 0.0));
  sched.add(5.0, cut);
  sched.add(12.0, NetworkPolicy{});
  EXPECT_EQ(sched.active(0.0).link.drop_rate, 0.1);
  EXPECT_EQ(sched.active(4.999).link.drop_rate, 0.1);
  EXPECT_EQ(sched.active(5.0).for_channel(0, 1).drop_rate, 1.0);
  EXPECT_EQ(sched.active(5.0).for_channel(1, 0).drop_rate, 0.0);
  EXPECT_FALSE(sched.active(12.0).enabled());
  // First phase must start at 0; times must strictly ascend.
  PolicySchedule bad;
  EXPECT_THROW(bad.add(1.0, NetworkPolicy{}), ContractViolation);
  bad.add(0.0, NetworkPolicy{});
  EXPECT_THROW(bad.add(0.0, NetworkPolicy{}), ContractViolation);
}

TEST(FaultyLink, ScheduledPartitionDropsThenHeals) {
  // Partitioned phase (drop 1.0 on 0->1) from t=0 to t=1000, then heal.
  // The schedule constructor accepts full drop; the burst falls in the
  // partitioned window so nothing on 0->1 gets through.
  PolicySchedule sched;
  NetworkPolicy cut;
  cut.set_channel(0, 1, ChannelPolicy(1.0, 0.0, 0.0));
  sched.add(0.0, cut);
  sched.add(1000.0, NetworkPolicy{});
  Burst::Log log;
  sim::Simulation sim(2, 21, std::make_unique<sim::UniformDelay>(0.1, 1.0),
                      {});
  sim.set_fault_model(std::make_unique<FaultyLinkModel>(sched));
  sim.add_process(std::make_unique<Burst>(&log, 1, 50));
  sim.add_process(std::make_unique<Burst>(&log, 0, 0));
  const auto rr = sim.run();
  EXPECT_EQ(log.deliveries.size(), 0u);
  EXPECT_EQ(rr.stats.net_dropped, 50u);
  // A uniform drop-1.0 policy stays rejected outside a schedule.
  EXPECT_THROW(FaultyLinkModel(NetworkPolicy::lossy(1.0)),
               ContractViolation);
}

TEST(FaultyLink, PolicyEnabledDetection) {
  EXPECT_FALSE(NetworkPolicy{}.enabled());
  EXPECT_TRUE(NetworkPolicy::lossy(0.1).enabled());
  NetworkPolicy p;
  p.set_channel(1, 2, LinkFaults(0.0, 0.2, 0.0));
  EXPECT_TRUE(p.enabled());
}

}  // namespace
}  // namespace chc::net
