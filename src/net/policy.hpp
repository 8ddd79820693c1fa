// Network robustness configuration shared by both execution environments.
//
// A NetworkPolicy describes how far a network deviates from the paper's
// reliable exactly-once FIFO model: per-channel probabilities of message
// drop, duplication and reordering. net::FaultyLinkModel turns a policy
// into the sim::LinkFaultModel hook sim::Simulation consumes,
// transport::FaultyTransport applies a PolicySchedule to a live node's
// frames, and net::ReliableChannel is the recovery shim that restores the
// strong model on top (see reliable_channel.hpp).
//
// The injected faults stay *fair-lossy* as long as drop_rate < 1: every
// send is dropped independently, so a message retransmitted forever is
// eventually delivered — the assumption the reliable channel needs.
// Partitioned phases of a PolicySchedule are the sanctioned exception:
// there drop_rate may reach 1.0, and liveness is deferred to the heal.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "sim/message.hpp"

namespace chc::net {

/// Fault rates of one (class of) directed link. All probabilities are
/// independent per accepted send. Construct through the validating
/// constructor where possible: rates are clamped into [0, 1] and the
/// reorder-delay range is checked once, instead of surfacing later as a
/// FaultyLinkModel failure mid-experiment.
struct ChannelPolicy {
  double drop_rate = 0.0;     ///< P(message vanishes)
  double dup_rate = 0.0;      ///< P(one extra copy is enqueued)
  double reorder_rate = 0.0;  ///< P(message bypasses FIFO, delayed extra)
  /// Extra delay (delay-model time units) a reordered message picks up,
  /// uniform in [min, max] — enough for later traffic to overtake it.
  double reorder_delay_min = 0.5;
  double reorder_delay_max = 3.0;

  ChannelPolicy() = default;

  ChannelPolicy(double drop, double dup, double reorder,
                double delay_min = 0.5, double delay_max = 3.0)
      : drop_rate(std::clamp(drop, 0.0, 1.0)),
        dup_rate(std::clamp(dup, 0.0, 1.0)),
        reorder_rate(std::clamp(reorder, 0.0, 1.0)),
        reorder_delay_min(delay_min),
        reorder_delay_max(delay_max) {
    CHC_CHECK(delay_min > 0.0 && delay_min <= delay_max,
              "need 0 < reorder_delay_min <= reorder_delay_max");
  }

  bool faulty() const {
    return drop_rate > 0.0 || dup_rate > 0.0 || reorder_rate > 0.0;
  }
};

/// Historical name (the shim predates per-channel scheduling).
using LinkFaults = ChannelPolicy;

/// Whole-network policy: one default link class plus optional per-directed-
/// channel overrides (e.g. a single flaky link, or an asymmetric cut).
struct NetworkPolicy {
  ChannelPolicy link;
  std::map<std::pair<sim::ProcessId, sim::ProcessId>, ChannelPolicy> overrides;

  NetworkPolicy& set_channel(sim::ProcessId from, sim::ProcessId to,
                             ChannelPolicy f) {
    overrides[{from, to}] = f;
    return *this;
  }

  const ChannelPolicy& for_channel(sim::ProcessId from,
                                   sim::ProcessId to) const {
    const auto it = overrides.find({from, to});
    return it == overrides.end() ? link : it->second;
  }

  bool enabled() const {
    if (link.faulty()) return true;
    for (const auto& [channel, faults] : overrides) {
      (void)channel;
      if (faults.faulty()) return true;
    }
    return false;
  }

  /// Uniform lossy network (the fuzzer's bread and butter). Rates outside
  /// [0, 1] are clamped by the ChannelPolicy constructor.
  static NetworkPolicy lossy(double drop, double dup = 0.0,
                             double reorder = 0.0) {
    NetworkPolicy p;
    p.link = ChannelPolicy(drop, dup, reorder);
    return p;
  }
};

/// Time-varying network policy: a piecewise-constant sequence of
/// NetworkPolicy phases keyed by simulation time. This is how nemesis
/// scenarios express partitions that later heal — phase k applies from
/// phases()[k].at until the next phase begins.
class PolicySchedule {
 public:
  struct Phase {
    sim::Time at = 0.0;
    NetworkPolicy policy;
  };

  PolicySchedule() = default;

  /// Appends a phase. Times must be strictly ascending and the first phase
  /// must start at 0 so every instant has a defined policy.
  PolicySchedule& add(sim::Time at, NetworkPolicy policy) {
    if (phases_.empty()) {
      CHC_CHECK(at == 0.0, "first policy phase must start at time 0");
    } else {
      CHC_CHECK(at > phases_.back().at,
                "policy phases must have strictly ascending times");
    }
    phases_.push_back({at, std::move(policy)});
    return *this;
  }

  bool empty() const { return phases_.empty(); }
  const std::vector<Phase>& phases() const { return phases_; }

  /// The policy in force at time `now`.
  const NetworkPolicy& active(sim::Time now) const {
    CHC_CHECK(!phases_.empty(), "empty policy schedule");
    std::size_t k = 0;
    while (k + 1 < phases_.size() && phases_[k + 1].at <= now) ++k;
    return phases_[k].policy;
  }

 private:
  std::vector<Phase> phases_;
};

/// Tuning of the reliable-channel shim's retransmission machinery, in
/// delay-model time units (NodeRuntime maps them onto wall time through
/// its time_scale).
struct ReliableParams {
  /// Initial retransmission timeout. The stock delay models draw one-way
  /// latencies <= 1.0, so the worst-case clean RTT is 2.0; at the jitter
  /// low end (x(1-jitter)) a 3.0 initial RTO still fires no earlier than
  /// 2.25 — a clean network sees zero spurious retransmissions.
  double rto = 3.0;
  double backoff = 2.0;    ///< exponential backoff factor per retry
  double rto_max = 20.0;   ///< backoff ceiling
  double jitter = 0.25;    ///< +/- fraction of randomization on each RTO
  /// Per-packet retry budget. Fair-lossy links only need "retransmit until
  /// acked", but a crashed receiver never acks — once the oldest unacked
  /// frame has been retried this often the channel declares the peer
  /// unreachable and stops, so executions quiesce. At rto=3, backoff 2x
  /// capped at 20: ~15 retries span ~260 time units after that frame's
  /// first send, far beyond any CC execution against a live peer.
  std::size_t max_retries = 15;
};

}  // namespace chc::net
