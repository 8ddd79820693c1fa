// FaultyTransport: the live half of the nemesis, tested over loopback.
//
// Phase timing is wall-clock anchored, so tests pin model time by choosing
// the anchor relative to "now" instead of sleeping: anchor == now puts the
// schedule at model t ~ 0, anchor == now - k * scale puts it at t ~ k.
#include "transport/faulty.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>

#include "transport/loopback.hpp"

namespace chc::transport {
namespace {

double realtime_now() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

WireFrame data_frame(std::uint64_t instance, codec::Buffer payload) {
  WireFrame f;
  f.kind = FrameKind::kData;
  f.instance = instance;
  f.payload = std::move(payload);
  return f;
}

/// Drains node 1's endpoint, returning the instances received in order.
std::vector<std::uint64_t> drain(Transport& t, int timeout_ms = 0) {
  std::vector<std::uint64_t> got;
  t.poll(timeout_ms,
         [&](NodeId, WireFrame f) { got.push_back(f.instance); });
  return got;
}

net::PolicySchedule cut_then_heal(double heal_at) {
  net::NetworkPolicy cut;
  cut.set_channel(0, 1, net::ChannelPolicy(1.0, 0.0, 0.0));
  net::PolicySchedule sched;
  sched.add(0.0, cut);
  sched.add(heal_at, net::NetworkPolicy{});
  return sched;
}

TEST(FaultyTransport, PassthroughWhenUnarmed) {
  LoopbackHub hub(2);
  auto e0 = hub.endpoint(0);
  auto e1 = hub.endpoint(1);
  FaultyTransport ft(*e0);
  EXPECT_FALSE(ft.armed());
  EXPECT_EQ(ft.model_now(), 0.0);
  EXPECT_TRUE(ft.send(1, data_frame(7, {1, 2, 3})));
  EXPECT_EQ(drain(*e1), std::vector<std::uint64_t>{7});
  // Unarmed sends do not touch the stats.
  EXPECT_EQ(ft.stats().passed, 0u);
  EXPECT_EQ(ft.stats().injected_drops, 0u);
}

TEST(FaultyTransport, PartitionPhaseBlocksThenHeals) {
  LoopbackHub hub(2);
  auto e0 = hub.endpoint(0);
  auto e1 = hub.endpoint(1);
  FaultyTransport ft(*e0);

  // Anchor "now": model time sits inside the cut phase [0, 40).
  ft.set_schedule(cut_then_heal(40.0), realtime_now(), /*seed=*/1,
                  /*time_scale=*/1.0);
  ASSERT_TRUE(ft.armed());
  EXPECT_TRUE(ft.send(1, data_frame(1, {})));  // loss is silent
  EXPECT_TRUE(drain(*e1).empty());
  EXPECT_EQ(ft.stats().injected_drops, 1u);

  // Re-anchor 41 model units in the past: the same schedule is now in its
  // healed phase, so the identical send passes.
  ft.set_schedule(cut_then_heal(40.0), realtime_now() - 41.0, /*seed=*/1,
                  /*time_scale=*/1.0);
  EXPECT_GE(ft.model_now(), 40.0);
  EXPECT_TRUE(ft.send(1, data_frame(2, {})));
  EXPECT_EQ(drain(*e1), std::vector<std::uint64_t>{2});
}

TEST(FaultyTransport, CutOnlyAffectsItsDirectedChannel) {
  LoopbackHub hub(3);
  auto e0 = hub.endpoint(0);
  auto e1 = hub.endpoint(1);
  auto e2 = hub.endpoint(2);
  FaultyTransport ft(*e0);
  ft.set_schedule(cut_then_heal(40.0), realtime_now(), 1, 1.0);
  EXPECT_TRUE(ft.send(1, data_frame(1, {})));  // 0 -> 1 is cut
  EXPECT_TRUE(ft.send(2, data_frame(2, {})));  // 0 -> 2 is clean
  EXPECT_TRUE(drain(*e1).empty());
  EXPECT_EQ(drain(*e2), std::vector<std::uint64_t>{2});
}

TEST(FaultyTransport, DuplicatesEveryFrameAtRateOne) {
  LoopbackHub hub(2);
  auto e0 = hub.endpoint(0);
  auto e1 = hub.endpoint(1);
  FaultyTransport ft(*e0);
  net::PolicySchedule sched;
  sched.add(0.0, net::NetworkPolicy::lossy(0.0, /*dup=*/1.0));
  ft.set_schedule(sched, realtime_now(), 1, 1.0);
  EXPECT_TRUE(ft.send(1, data_frame(5, {9})));
  const auto got = drain(*e1);
  EXPECT_EQ(got, (std::vector<std::uint64_t>{5, 5}));
  EXPECT_EQ(ft.stats().injected_dups, 1u);
  EXPECT_EQ(ft.stats().passed, 1u);
}

TEST(FaultyTransport, ReorderParksThenReleasesAfterItsDelay) {
  LoopbackHub hub(2);
  auto e0 = hub.endpoint(0);
  auto e1 = hub.endpoint(1);
  FaultyTransport ft(*e0);
  // reorder_rate 1 with delay in [0.5, 3] model units at scale 0.01 s/unit
  // parks every frame for 5..30 ms of wall time.
  net::PolicySchedule sched;
  sched.add(0.0, net::NetworkPolicy::lossy(0.0, 0.0, /*reorder=*/1.0));
  ft.set_schedule(sched, realtime_now(), 1, /*time_scale=*/0.01);
  EXPECT_TRUE(ft.send(1, data_frame(1, {})));
  EXPECT_EQ(ft.parked(), 1u);
  EXPECT_EQ(ft.stats().injected_delays, 1u);
  EXPECT_TRUE(drain(*e1).empty());

  // Disarm: the parked frame must still drain once its due time passes.
  ft.clear_schedule();
  EXPECT_TRUE(ft.send(1, data_frame(2, {})));  // overtakes the parked frame
  std::vector<std::uint64_t> got = drain(*e1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (got.size() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ft.poll(0, [&](NodeId, WireFrame f) { got.push_back(f.instance); });
    for (const std::uint64_t i : drain(*e1)) got.push_back(i);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got, (std::vector<std::uint64_t>{2, 1}));  // later traffic won
  EXPECT_EQ(ft.parked(), 0u);
  EXPECT_EQ(ft.stats().released, 1u);
}

TEST(FaultyTransport, FaultStreamIsSeedDeterministicPerNode) {
  const auto run = [](std::uint64_t seed) {
    LoopbackHub hub(2);
    auto e0 = hub.endpoint(0);
    auto e1 = hub.endpoint(1);
    FaultyTransport ft(*e0);
    net::PolicySchedule sched;
    sched.add(0.0, net::NetworkPolicy::lossy(0.5));
    ft.set_schedule(sched, realtime_now(), seed, 1.0);
    std::vector<std::uint64_t> got;
    for (std::uint64_t i = 0; i < 64; ++i) {
      ft.send(1, data_frame(i, {}));
    }
    e1->poll(0, [&](NodeId, WireFrame f) { got.push_back(f.instance); });
    return got;
  };
  const auto a = run(42);
  EXPECT_EQ(a, run(42));        // same seed, same survivors
  EXPECT_NE(a, run(43));        // different seed, different stream
  EXPECT_GT(a.size(), 8u);      // drop 0.5 leaves a healthy fraction
  EXPECT_LT(a.size(), 56u);     // ... and kills a healthy fraction
}

// --- NemesisSpec wire form ------------------------------------------------

NemesisSpec sample_spec() {
  NemesisSpec spec;
  spec.seed = 0xdeadbeefcafe1234ULL;
  spec.anchor_realtime_sec = 1.7e9 + 0.125;
  spec.time_scale = 0.02;
  net::NetworkPolicy cut = net::NetworkPolicy::lossy(0.1, 0.05, 0.2);
  cut.set_channel(0, 3, net::ChannelPolicy(1.0, 0.0, 0.0));
  cut.set_channel(3, 0, net::ChannelPolicy(1.0, 0.0, 0.3));
  spec.schedule.add(0.0, cut);
  spec.schedule.add(40.0, net::NetworkPolicy::lossy(0.1, 0.05, 0.2));
  return spec;
}

TEST(NemesisSpec, EncodeParseRoundTrip) {
  const NemesisSpec spec = sample_spec();
  const auto parsed = parse_nemesis_spec(encode_nemesis_spec(spec));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->seed, spec.seed);
  EXPECT_DOUBLE_EQ(parsed->anchor_realtime_sec, spec.anchor_realtime_sec);
  EXPECT_DOUBLE_EQ(parsed->time_scale, spec.time_scale);
  ASSERT_EQ(parsed->schedule.phases().size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    const auto& want = spec.schedule.phases()[k];
    const auto& got = parsed->schedule.phases()[k];
    EXPECT_DOUBLE_EQ(got.at, want.at);
    EXPECT_DOUBLE_EQ(got.policy.link.drop_rate, want.policy.link.drop_rate);
    EXPECT_DOUBLE_EQ(got.policy.link.dup_rate, want.policy.link.dup_rate);
    EXPECT_DOUBLE_EQ(got.policy.link.reorder_rate,
                     want.policy.link.reorder_rate);
    ASSERT_EQ(got.policy.overrides.size(), want.policy.overrides.size());
  }
  const auto& ovr = parsed->schedule.phases()[0].policy.for_channel(3, 0);
  EXPECT_DOUBLE_EQ(ovr.drop_rate, 1.0);
  EXPECT_DOUBLE_EQ(ovr.reorder_rate, 0.3);
}

TEST(NemesisSpec, ReEncodeIsStable) {
  // parse(encode(x)) re-encodes to the identical string: the controller
  // and the node agree on one canonical wire form.
  const std::string wire = encode_nemesis_spec(sample_spec());
  const auto parsed = parse_nemesis_spec(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(encode_nemesis_spec(*parsed), wire);
}

TEST(NemesisSpec, RejectsMalformedInput) {
  const std::string good = encode_nemesis_spec(sample_spec());
  EXPECT_TRUE(parse_nemesis_spec(good).has_value());
  // Truncations at every token boundary must all fail cleanly.
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    if (good[cut] != ' ') continue;
    EXPECT_FALSE(parse_nemesis_spec(good.substr(0, cut)).has_value())
        << "prefix of " << cut << " bytes parsed";
  }
  EXPECT_FALSE(parse_nemesis_spec("").has_value());
  EXPECT_FALSE(parse_nemesis_spec("seed x scale 1 anchor 0 phases 0")
                   .has_value());
  EXPECT_FALSE(parse_nemesis_spec(good + " trailing").has_value());
  // Zero or negative time scale is meaningless.
  EXPECT_FALSE(
      parse_nemesis_spec("seed 1 scale 0 anchor 0 phases 0").has_value());
  EXPECT_FALSE(
      parse_nemesis_spec("seed 1 scale -1 anchor 0 phases 0").has_value());
  // First phase must start at 0; times must ascend.
  EXPECT_TRUE(parse_nemesis_spec("seed 1 scale 1 anchor 0 phases 1 "
                                 "at 0 link 0 0 0 ovr 0")
                  .has_value());
  EXPECT_FALSE(parse_nemesis_spec("seed 1 scale 1 anchor 0 phases 1 "
                                  "at 5 link 0 0 0 ovr 0")
                   .has_value());
  EXPECT_FALSE(parse_nemesis_spec("seed 1 scale 1 anchor 0 phases 2 "
                                  "at 0 link 0 0 0 ovr 0 "
                                  "at 0 link 0 0 0 ovr 0")
                   .has_value());
  // A channel is exactly three rates: five numbers (a reorder-delay range
  // after them) are malformed, in a link class and in an override.
  EXPECT_FALSE(parse_nemesis_spec("seed 1 scale 1 anchor 0 phases 1 "
                                  "at 0 link 0 0 0 0.5 3 ovr 0")
                   .has_value());
  EXPECT_FALSE(parse_nemesis_spec("seed 1 scale 1 anchor 0 phases 1 "
                                  "at 0 link 0 0 0 ovr 1 0 1 1 0 0 0.5 3")
                   .has_value());
}

TEST(NemesisSpec, HeaderPhasesMirrorTheSchedule) {
  const NemesisSpec spec = sample_spec();
  const auto phases = to_header_phases(spec.schedule);
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_DOUBLE_EQ(phases[0].at, 0.0);
  EXPECT_DOUBLE_EQ(phases[0].drop, 0.1);
  EXPECT_DOUBLE_EQ(phases[1].at, 40.0);
  ASSERT_EQ(phases[0].overrides.size(), 2u);
  EXPECT_EQ(phases[0].overrides[0].from, 0u);
  EXPECT_EQ(phases[0].overrides[0].to, 3u);
  EXPECT_DOUBLE_EQ(phases[0].overrides[0].drop, 1.0);
  EXPECT_TRUE(phases[1].overrides.empty());
}

}  // namespace
}  // namespace chc::transport
