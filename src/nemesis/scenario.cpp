#include "nemesis/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "common/check.hpp"

namespace chc::nemesis {

Scenario& Scenario::base_policy(net::NetworkPolicy policy) {
  base_ = std::move(policy);
  return *this;
}

Scenario& Scenario::partition(sim::Time t0, sim::Time t1,
                              std::vector<sim::ProcessId> side_a) {
  CHC_CHECK(t1 > t0, "partition interval must be non-empty");
  CHC_CHECK(!side_a.empty(), "partition side must be non-empty");
  cuts_.push_back({t0, t1, std::move(side_a), {}, /*symmetric=*/true});
  return *this;
}

Scenario& Scenario::partition_one_way(sim::Time t0, sim::Time t1,
                                      std::vector<sim::ProcessId> from,
                                      std::vector<sim::ProcessId> to) {
  CHC_CHECK(t1 > t0, "partition interval must be non-empty");
  CHC_CHECK(!from.empty() && !to.empty(), "cut sides must be non-empty");
  cuts_.push_back({t0, t1, std::move(from), std::move(to),
                   /*symmetric=*/false});
  return *this;
}

Scenario& Scenario::partition_flapping(sim::Time t0, sim::Time t1,
                                       sim::Time period,
                                       std::vector<sim::ProcessId> side_a) {
  CHC_CHECK(t1 > t0 && std::isfinite(t1), "flapping window must be finite");
  CHC_CHECK(period > 0.0, "flapping period must be positive");
  CHC_CHECK(!side_a.empty(), "partition side must be non-empty");
  CHC_CHECK((t1 - t0) / period <= 10000.0, "too many flap windows");
  // The cut is open for the first half of every period, healed for the
  // second; expansion needs no n, so the flap lowers to plain cuts now.
  for (sim::Time s = t0; s < t1; s += period) {
    const sim::Time e = std::min(s + period / 2.0, t1);
    if (e <= s) break;
    cuts_.push_back({s, e, side_a, {}, /*symmetric=*/true});
  }
  return *this;
}

Scenario& Scenario::partition_rolling(sim::Time t0, sim::Time t1,
                                      sim::Time period) {
  CHC_CHECK(t1 > t0 && std::isfinite(t1), "rolling window must be finite");
  CHC_CHECK(period > 0.0, "rolling period must be positive");
  CHC_CHECK((t1 - t0) / period <= 10000.0, "too many roll windows");
  rolls_.push_back({t0, t1, period});
  return *this;
}

Scenario& Scenario::pause(sim::ProcessId p, sim::Time t0, sim::Time t1) {
  CHC_CHECK(t1 > t0 && std::isfinite(t1), "pause window must be finite");
  pauses_.push_back({p, t0, t1});
  return *this;
}

Scenario& Scenario::clock_skew(sim::ProcessId p, double rate) {
  CHC_CHECK(rate > 0.0, "clock rate must be positive");
  CHC_CHECK(!skews_.count(p), "one clock rate per process");
  skews_[p] = rate;
  return *this;
}

Scenario& Scenario::crash(sim::ProcessId p, sim::Time at) {
  CHC_CHECK(!crashes_.count(p), "one crash plan per process");
  CHC_CHECK(!byz_.count(p),
            "a byzantine process does not also crash (use kSilent)");
  crashes_[p] = sim::CrashPlan::at(at);
  return *this;
}

Scenario& Scenario::crash_after(sim::ProcessId p, std::size_t sends) {
  CHC_CHECK(!crashes_.count(p), "one crash plan per process");
  CHC_CHECK(!byz_.count(p),
            "a byzantine process does not also crash (use kSilent)");
  crashes_[p] = sim::CrashPlan::after(sends);
  return *this;
}

Scenario& Scenario::recover(sim::ProcessId p, sim::Time at) {
  const auto it = crashes_.find(p);
  CHC_CHECK(it != crashes_.end() && it->second.at_time.has_value(),
            "recover(p) requires an earlier time-triggered crash(p)");
  CHC_CHECK(at > *it->second.at_time, "recovery must follow the crash");
  it->second.then_recover_at(at);
  return *this;
}

Scenario& Scenario::delay_storm(sim::Time t0, sim::Time t1, double factor) {
  CHC_CHECK(t1 > t0, "storm window must be non-empty");
  CHC_CHECK(factor >= 1.0, "storm factor must be >= 1");
  storms_.push_back({t0, t1, factor});
  return *this;
}

Scenario& Scenario::byzantine(sim::ProcessId p, bcc::BehaviorSpec spec) {
  CHC_CHECK(!byz_.count(p), "one byzantine behavior per process");
  CHC_CHECK(!crashes_.count(p),
            "a byzantine process does not also crash (use kSilent)");
  byz_[p] = spec;
  return *this;
}

namespace {

/// The directed links a cut severs in an n-process system.
std::vector<std::pair<sim::ProcessId, sim::ProcessId>> cut_links(
    const Cut& cut, std::size_t n) {
  const std::set<sim::ProcessId> from(cut.from.begin(), cut.from.end());
  std::set<sim::ProcessId> to(cut.to.begin(), cut.to.end());
  if (cut.to.empty()) {  // complement
    for (sim::ProcessId p = 0; p < n; ++p) {
      if (from.count(p) == 0) to.insert(p);
    }
  }
  std::vector<std::pair<sim::ProcessId, sim::ProcessId>> links;
  for (const sim::ProcessId a : from) {
    CHC_CHECK(a < n, "cut process id out of range");
    for (const sim::ProcessId b : to) {
      CHC_CHECK(b < n, "cut process id out of range");
      if (a == b) continue;
      links.emplace_back(a, b);
      if (cut.symmetric) links.emplace_back(b, a);
    }
  }
  return links;
}

}  // namespace

Scenario::Compiled Scenario::compile(std::size_t n, Target target) const {
  CHC_CHECK(n > 0, "empty system");
  Compiled out;
  out.policy = base_;
  out.storms = storms_;
  for (const auto& [p, plan] : crashes_) {
    CHC_CHECK(p < n, "crash plan process id out of range");
    CHC_CHECK(!plan.recover_at.has_value() || byz_.empty(),
              "byzantine scenarios are crash-stop only (no recovery)");
    out.crashes.set(p, plan);
  }
  for (const auto& [p, spec] : byz_) {
    CHC_CHECK(p < n, "byzantine process id out of range");
    out.byz.emplace(p, spec);
  }
  for (const auto& [p, rate] : skews_) {
    CHC_CHECK(p < n, "clock-skew process id out of range");
    CHC_CHECK(target == Target::kLive,
              "clock_skew only lowers to the live runtime (the sim's "
              "virtual clock cannot skew)");
    out.skews.emplace(p, rate);
  }
  std::vector<Cut> cuts = cuts_;
  // A rolling partition isolates node k (mod n) during its k-th window.
  for (const RollingPartition& roll : rolls_) {
    std::size_t k = 0;
    for (sim::Time s = roll.t0; s < roll.t1; s += roll.period, ++k) {
      const sim::Time e = std::min(s + roll.period, roll.t1);
      if (e <= s) break;
      cuts.push_back({s, e, {static_cast<sim::ProcessId>(k % n)}, {},
                      /*symmetric=*/true});
    }
  }
  for (const PauseWindow& pw : pauses_) {
    CHC_CHECK(pw.p < n, "pause process id out of range");
    if (target == Target::kLive) {
      out.pauses.push_back(pw);
    } else {
      // Sim approximation: a frozen process is unreachable both ways (its
      // state survives, so this is a cut, not a crash). The sim cannot
      // stop its timers, which makes the approximation conservative: the
      // paused process may retransmit into a void, never act on stale
      // state it could not have seen.
      cuts.push_back({pw.t0, pw.t1, {pw.p}, {}, /*symmetric=*/true});
    }
  }
  if (cuts.empty()) return out;

  // Phase breakpoints: 0 plus every finite cut boundary.
  std::set<sim::Time> breaks{0.0};
  for (const Cut& cut : cuts) {
    breaks.insert(cut.t0);
    if (std::isfinite(cut.t1)) breaks.insert(cut.t1);
  }
  for (const sim::Time at : breaks) {
    net::NetworkPolicy phase = base_;
    for (const Cut& cut : cuts) {
      if (at < cut.t0 || at >= cut.t1) continue;
      // Severed link: certain drop, otherwise the base class's behavior.
      const net::ChannelPolicy& b = base_.link;
      const net::ChannelPolicy severed(1.0, b.dup_rate, b.reorder_rate);
      for (const auto& [a, c] : cut_links(cut, n)) {
        phase.set_channel(a, c, severed);
      }
    }
    out.schedule.add(at, std::move(phase));
  }
  return out;
}

}  // namespace chc::nemesis
