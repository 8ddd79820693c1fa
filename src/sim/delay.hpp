// Network delay models.
//
// Asynchrony in the paper means message delays are finite but unbounded and
// chosen adversarially. The simulator makes the adversary concrete through
// DelayModel implementations; experiments sweep across them to show the
// algorithm's properties hold regardless of scheduling.
#pragma once

#include <memory>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "sim/message.hpp"

namespace chc::sim {

/// Strategy interface: delay assigned to a message from `from` to `to`
/// submitted at time `now`. Must return a value > 0. FIFO per channel is
/// enforced by the network layer on top of whatever this returns.
class DelayModel {
 public:
  virtual ~DelayModel() = default;
  virtual Time delay(ProcessId from, ProcessId to, Time now, Rng& rng) = 0;
};

/// Every message takes exactly `d` (synchronous-ish; useful for debugging).
class FixedDelay final : public DelayModel {
 public:
  explicit FixedDelay(Time d);
  Time delay(ProcessId, ProcessId, Time, Rng&) override;

 private:
  Time d_;
};

/// Uniform in [lo, hi].
class UniformDelay final : public DelayModel {
 public:
  UniformDelay(Time lo, Time hi);
  Time delay(ProcessId, ProcessId, Time, Rng& rng) override;

 private:
  Time lo_, hi_;
};

/// Exponential with the given mean (heavy-ish tail: occasional stragglers).
class ExponentialDelay final : public DelayModel {
 public:
  explicit ExponentialDelay(Time mean);
  Time delay(ProcessId, ProcessId, Time, Rng& rng) override;

 private:
  Time mean_;
};

/// Adversarial schedule: messages to or from a designated "lagged" set,
/// submitted before `until`, take `factor` times the base delay. With an
/// infinite `until` this is the schedule used in the paper's optimality
/// argument (Theorem 3): up to f processes are so slow that the rest must
/// decide without hearing from them. With a finite one it models a process
/// that is slow during the protocol's opening phase (e.g. round 0) and
/// recovers — the schedule that makes stable-vector views genuinely differ
/// while keeping everyone participating afterwards.
class PhasedLagDelay final : public DelayModel {
 public:
  PhasedLagDelay(std::unique_ptr<DelayModel> base, std::set<ProcessId> lagged,
                 double factor, Time until);
  Time delay(ProcessId from, ProcessId to, Time now, Rng& rng) override;

 private:
  std::unique_ptr<DelayModel> base_;
  std::set<ProcessId> lagged_;
  double factor_;
  Time until_;
};

/// A delay storm: every message submitted in [t0, t1) takes `factor` times
/// its base delay. The nemesis harness layers these windows on any base
/// model to create temporary heavy-tail congestion.
struct StormWindow {
  Time t0 = 0.0;
  Time t1 = 0.0;
  double factor = 1.0;
};

/// Wraps a base model with delay-storm windows. Factors of overlapping
/// windows multiply. Draws exactly one base sample per message, so adding
/// a storm never shifts the RNG stream positions of the base model.
class StormDelay final : public DelayModel {
 public:
  StormDelay(std::unique_ptr<DelayModel> base, std::vector<StormWindow> storms);
  Time delay(ProcessId from, ProcessId to, Time now, Rng& rng) override;

 private:
  std::unique_ptr<DelayModel> base_;
  std::vector<StormWindow> storms_;
};

}  // namespace chc::sim
