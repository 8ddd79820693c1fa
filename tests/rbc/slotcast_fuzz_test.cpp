// SlotBroadcast property/fuzz tests under genuine Byzantine senders:
// equivocation (per-receiver and lopsided), forged INIT/READY bursts in
// another origin's name and silent mid-broadcast drops, across many seeds,
// plus the construction and one-broadcast-per-slot contracts. The two
// properties under attack:
//
//   agreement  — for every (origin, slot), all correct processes that
//                deliver, deliver the *same* bytes, and totality makes
//                delivery all-or-none among correct processes;
//   integrity  — for an honest origin, the delivered bytes are exactly the
//                bytes it broadcast, no matter what the adversary injects.
#include "rbc/slotcast.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "sim/simulation.hpp"

namespace chc::rbc {
namespace {

/// Honest host: broadcasts one byte-string per slot, records deliveries.
class Host : public sim::Process {
 public:
  Host(std::size_t n, std::size_t f, std::vector<Bytes> slot_values)
      : n_(n), f_(f), values_(std::move(slot_values)) {}

  void on_start(sim::Context& ctx) override {
    cast_ = std::make_unique<SlotBroadcast>(
        n_, f_, ctx.self(),
        [this](sim::Context&, sim::ProcessId origin, std::uint32_t slot,
               const Bytes& bytes) {
          delivered_[{origin, slot}] = bytes;
        });
    for (std::uint32_t s = 0; s < values_.size(); ++s) {
      cast_->broadcast(ctx, s, values_[s]);
    }
  }
  void on_message(sim::Context& ctx, const sim::Message& msg) override {
    cast_->on_message(ctx, msg);
  }

  const std::map<std::pair<sim::ProcessId, std::uint32_t>, Bytes>&
  delivered() const {
    return delivered_;
  }
  std::uint64_t rejected() const { return cast_->rejected(); }

 private:
  std::size_t n_, f_;
  std::vector<Bytes> values_;
  std::unique_ptr<SlotBroadcast> cast_;
  std::map<std::pair<sim::ProcessId, std::uint32_t>, Bytes> delivered_;
};

/// Equivocating sender: hand-rolls its own INITs, a different byte-string
/// per receiver (worst case: no two receivers agree), across two slots.
/// It also echoes honestly for others so honest traffic still flows.
class EquivocatingSender final : public sim::Process {
 public:
  EquivocatingSender(std::size_t n, std::size_t f) : n_(n), f_(f) {}

  void on_start(sim::Context& ctx) override {
    cast_ = std::make_unique<SlotBroadcast>(
        n_, f_, ctx.self(),
        [](sim::Context&, sim::ProcessId, std::uint32_t, const Bytes&) {});
    for (sim::ProcessId to = 0; to < n_; ++to) {
      if (to == ctx.self()) continue;
      for (std::uint32_t slot = 0; slot < 2; ++slot) {
        ctx.send(to, kTagSlotInit,
                 SlotMsg{ctx.self(), slot,
                         Bytes{std::uint8_t(to), std::uint8_t(slot)}});
      }
    }
  }
  void on_message(sim::Context& ctx, const sim::Message& msg) override {
    cast_->on_message(ctx, msg);  // cooperate on everyone else's slots
  }

 private:
  std::size_t n_, f_;
  std::unique_ptr<SlotBroadcast> cast_;
};

/// Silent-drop sender: broadcasts honestly but its outgoing messages stop
/// flowing after `quota` sends (modeled by counting in on-start/echo via a
/// wrapper is overkill here — it simply never participates after INITs to
/// a prefix of the receivers).
class HalfSilentSender final : public sim::Process {
 public:
  HalfSilentSender(std::size_t n, std::size_t cutoff)
      : n_(n), cutoff_(cutoff) {}

  void on_start(sim::Context& ctx) override {
    // INIT reaches only the first `cutoff` other processes, then silence
    // forever (no echoes, no readies — a mid-broadcast Byzantine drop).
    std::size_t sent = 0;
    for (sim::ProcessId to = 0; to < n_ && sent < cutoff_; ++to) {
      if (to == ctx.self()) continue;
      ctx.send(to, kTagSlotInit, SlotMsg{ctx.self(), 0, Bytes{0x5A}});
      ++sent;
    }
  }
  void on_message(sim::Context&, const sim::Message&) override {}

 private:
  std::size_t n_, cutoff_;
};

struct FuzzOutcome {
  std::vector<Host*> honest;
  bool quiescent = false;
};

void check_agreement_and_integrity(const std::vector<Host*>& honest,
                                   std::size_t n_slots_per_honest,
                                   std::uint64_t seed) {
  // Agreement + totality per (origin, slot) across correct processes.
  std::map<std::pair<sim::ProcessId, std::uint32_t>, std::set<Bytes>> seen;
  std::map<std::pair<sim::ProcessId, std::uint32_t>, std::size_t> count;
  for (const Host* h : honest) {
    for (const auto& [key, bytes] : h->delivered()) {
      seen[key].insert(bytes);
      ++count[key];
    }
  }
  for (const auto& [key, values] : seen) {
    EXPECT_EQ(values.size(), 1u)
        << "seed=" << seed << " origin=" << key.first
        << " slot=" << key.second << " split into " << values.size();
    EXPECT_TRUE(count[key] == honest.size())
        << "seed=" << seed << " origin=" << key.first
        << " slot=" << key.second << ": delivered at " << count[key] << "/"
        << honest.size() << " correct processes";
  }
  // Integrity for honest origins: the delivered bytes are the broadcast
  // bytes ({pid, slot} by construction below).
  for (const Host* h : honest) {
    for (const auto& [key, bytes] : h->delivered()) {
      if (key.first >= honest.size()) continue;  // byzantine origin
      ASSERT_LT(key.second, n_slots_per_honest);
      EXPECT_EQ(bytes,
                (Bytes{std::uint8_t(key.first), std::uint8_t(key.second)}))
          << "seed=" << seed;
    }
  }
}

TEST(SlotcastFuzz, EquivocationNeverSplitsAcrossSeeds) {
  const std::size_t n = 4, f = 1, slots = 2;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    sim::Simulation sim(n, seed, std::make_unique<sim::UniformDelay>(0.1, 1.0),
                        {});
    std::vector<Host*> honest;
    for (sim::ProcessId p = 0; p + 1 < n; ++p) {
      std::vector<Bytes> vals;
      for (std::uint32_t s = 0; s < slots; ++s) {
        vals.push_back(Bytes{std::uint8_t(p), std::uint8_t(s)});
      }
      auto h = std::make_unique<Host>(n, f, vals);
      honest.push_back(h.get());
      sim.add_process(std::move(h));
    }
    sim.add_process(std::make_unique<EquivocatingSender>(n, f));
    ASSERT_TRUE(sim.run().quiescent) << "seed=" << seed;
    check_agreement_and_integrity(honest, slots, seed);
    // Honest origins always complete: 3 honest * 2 slots each.
    for (const Host* h : honest) {
      std::size_t honest_deliveries = 0;
      for (const auto& [key, bytes] : h->delivered()) {
        if (key.first < honest.size()) ++honest_deliveries;
      }
      EXPECT_EQ(honest_deliveries, honest.size() * slots)
          << "seed=" << seed;
    }
  }
}

TEST(SlotcastFuzz, SilentDropIsAllOrNothingAcrossSeeds) {
  const std::size_t n = 7, f = 2;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 977);
    const std::size_t cutoff = rng.uniform_int(0, n - 1);
    sim::Simulation sim(n, seed, std::make_unique<sim::UniformDelay>(0.1, 1.0),
                        {});
    std::vector<Host*> honest;
    for (sim::ProcessId p = 0; p + 1 < n; ++p) {
      auto h = std::make_unique<Host>(
          n, f, std::vector<Bytes>{Bytes{std::uint8_t(p), std::uint8_t(0)}});
      honest.push_back(h.get());
      sim.add_process(std::move(h));
    }
    sim.add_process(std::make_unique<HalfSilentSender>(n, cutoff));
    ASSERT_TRUE(sim.run().quiescent) << "seed=" << seed;
    check_agreement_and_integrity(honest, 1, seed);
  }
}

TEST(Slotcast, ValidatesAdversarialEnvelopes) {
  // Malformed inbound traffic (bad type, out-of-range origin/slot,
  // oversized payload, forged INIT in another's name) is counted and
  // dropped; none of it reaches delivery.
  class Attacker final : public sim::Process {
   public:
    void on_start(sim::Context& ctx) override {
      ctx.broadcast_others(kTagSlotInit, std::string("wrong type"));
      ctx.broadcast_others(kTagSlotInit, SlotMsg{99, 0, Bytes{1}});
      ctx.broadcast_others(kTagSlotInit, SlotMsg{ctx.self(), 1u << 30, {1}});
      ctx.broadcast_others(kTagSlotEcho,
                           SlotMsg{ctx.self(), 0, Bytes(1 << 14, 0xFF)});
      // Forged INIT in process 0's name conflicting with its broadcast.
      ctx.broadcast_others(kTagSlotInit, SlotMsg{0, 0, Bytes{0xBA, 0xD0}});
    }
    void on_message(sim::Context&, const sim::Message&) override {}
  };

  const std::size_t n = 4, f = 1;
  sim::Simulation sim(n, 3, std::make_unique<sim::UniformDelay>(0.1, 1.0),
                      {});
  std::vector<Host*> honest;
  for (sim::ProcessId p = 0; p + 1 < n; ++p) {
    auto h = std::make_unique<Host>(
        n, f, std::vector<Bytes>{Bytes{std::uint8_t(p), std::uint8_t(0)}});
    honest.push_back(h.get());
    sim.add_process(std::move(h));
  }
  sim.add_process(std::make_unique<Attacker>());
  ASSERT_TRUE(sim.run().quiescent);

  std::uint64_t rejected = 0;
  for (const Host* h : honest) {
    rejected += h->rejected();
    // Integrity: process 0's slot 0 delivers its own bytes, not the forge.
    const auto it = h->delivered().find({0, 0});
    ASSERT_NE(it, h->delivered().end());
    EXPECT_EQ(it->second, (Bytes{0x00, 0x00}));
    // Nothing delivered for the attacker or bogus origins.
    for (const auto& [key, bytes] : h->delivered()) {
      EXPECT_LT(key.first, honest.size());
    }
  }
  EXPECT_GT(rejected, 0u);
}

/// Byzantine origin that equivocates on slot 0 with a LOPSIDED split:
/// process 0 is told {2}, everyone else {1}, so {1} can reach the echo
/// quorum; it never echoes or readies anything itself.
class LopsidedEquivocator final : public sim::Process {
 public:
  void on_start(sim::Context& ctx) override {
    for (sim::ProcessId to = 0; to < ctx.n(); ++to) {
      if (to == ctx.self()) continue;
      ctx.send(to, kTagSlotInit,
               SlotMsg{ctx.self(), 0, Bytes{std::uint8_t(to == 0 ? 2 : 1)}});
    }
  }
  void on_message(sim::Context&, const sim::Message&) override {}
};

TEST(Slotcast, LopsidedEquivocationDeliversOneValueEverywhere) {
  // n = 7, f = 2: five of six correct processes echo {1} (echo quorum
  // n-f = 5 reached); every correct process must deliver exactly {1} for
  // the Byzantine slot — including process 0, which was told {2}.
  const std::size_t n = 7, f = 2;
  std::size_t delivered_runs = 0;
  for (std::uint64_t seed = 40; seed < 50; ++seed) {
    sim::Simulation sim(n, seed, std::make_unique<sim::UniformDelay>(0.1, 1.0),
                        {});
    std::vector<Host*> honest;
    for (sim::ProcessId p = 0; p + 1 < n; ++p) {
      auto h = std::make_unique<Host>(
          n, f, std::vector<Bytes>{Bytes{std::uint8_t(p), std::uint8_t(0)}});
      honest.push_back(h.get());
      sim.add_process(std::move(h));
    }
    sim.add_process(std::make_unique<LopsidedEquivocator>());
    ASSERT_TRUE(sim.run().quiescent) << "seed=" << seed;
    check_agreement_and_integrity(honest, 1, seed);
    std::size_t got = 0;
    for (const Host* h : honest) {
      const auto it = h->delivered().find({6, 0});
      if (it == h->delivered().end()) continue;
      ++got;
      EXPECT_EQ(it->second, Bytes{1}) << "seed=" << seed;
    }
    if (got == honest.size()) ++delivered_runs;
  }
  // The lopsided split reaches quorum in (essentially) every schedule.
  EXPECT_GT(delivered_runs, 5u);
}

TEST(Slotcast, ForgedInitAndReadyFloodIgnored) {
  // Process 3 forges an INIT and a READY burst in process 0's name for
  // slot 0 with the bytes {99}; process 0 honestly broadcasts {0, 0}. No
  // correct process may deliver the forgery.
  class Forger final : public sim::Process {
   public:
    void on_start(sim::Context& ctx) override {
      ctx.broadcast_others(kTagSlotInit, SlotMsg{0, 0, Bytes{99}});
      ctx.broadcast_others(kTagSlotReady, SlotMsg{0, 0, Bytes{99}});
    }
    void on_message(sim::Context&, const sim::Message&) override {}
  };

  const std::size_t n = 4, f = 1;
  sim::Simulation sim(n, 5, std::make_unique<sim::UniformDelay>(0.1, 1.0), {});
  std::vector<Host*> honest;
  for (sim::ProcessId p = 0; p + 1 < n; ++p) {
    auto h = std::make_unique<Host>(
        n, f, std::vector<Bytes>{Bytes{std::uint8_t(p), std::uint8_t(0)}});
    honest.push_back(h.get());
    sim.add_process(std::move(h));
  }
  sim.add_process(std::make_unique<Forger>());
  ASSERT_TRUE(sim.run().quiescent);
  for (const Host* h : honest) {
    const auto it = h->delivered().find({0, 0});
    ASSERT_NE(it, h->delivered().end());
    EXPECT_EQ(it->second, (Bytes{0x00, 0x00}));
  }
}

TEST(Slotcast, OneBroadcastPerSlot) {
  class Doubler final : public sim::Process {
   public:
    void on_start(sim::Context& ctx) override {
      SlotBroadcast cast(
          4, 1, ctx.self(),
          [](sim::Context&, sim::ProcessId, std::uint32_t, const Bytes&) {});
      cast.broadcast(ctx, 0, Bytes{1});
      EXPECT_THROW(cast.broadcast(ctx, 0, Bytes{2}), ContractViolation);
      EXPECT_NO_THROW(cast.broadcast(ctx, 1, Bytes{2}));
    }
    void on_message(sim::Context&, const sim::Message&) override {}
  };
  sim::Simulation sim(4, 1, std::make_unique<sim::FixedDelay>(1.0), {});
  for (int i = 0; i < 4; ++i) sim.add_process(std::make_unique<Doubler>());
  sim.run(100000);
}

TEST(Slotcast, ContractChecks) {
  EXPECT_THROW(
      SlotBroadcast(3, 1, 0,
                    [](sim::Context&, sim::ProcessId, std::uint32_t,
                       const Bytes&) {}),
      ContractViolation);  // n = 3f without the boundary opt-in
  SlotBroadcast::Options below;
  below.allow_below_bound = true;
  EXPECT_NO_THROW(SlotBroadcast(
      3, 1, 0,
      [](sim::Context&, sim::ProcessId, std::uint32_t, const Bytes&) {},
      below));
}

}  // namespace
}  // namespace chc::rbc
