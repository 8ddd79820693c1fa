#include "sim/delay.hpp"

#include "common/check.hpp"

namespace chc::sim {

FixedDelay::FixedDelay(Time d) : d_(d) {
  CHC_CHECK(d > 0.0, "delay must be positive");
}

Time FixedDelay::delay(ProcessId, ProcessId, Time, Rng&) { return d_; }

UniformDelay::UniformDelay(Time lo, Time hi) : lo_(lo), hi_(hi) {
  CHC_CHECK(lo > 0.0 && hi >= lo, "need 0 < lo <= hi");
}

Time UniformDelay::delay(ProcessId, ProcessId, Time, Rng& rng) {
  return rng.uniform(lo_, hi_);
}

ExponentialDelay::ExponentialDelay(Time mean) : mean_(mean) {
  CHC_CHECK(mean > 0.0, "mean delay must be positive");
}

Time ExponentialDelay::delay(ProcessId, ProcessId, Time, Rng& rng) {
  // Shift by a tiny floor so delays are strictly positive.
  return 1e-6 + rng.exponential(1.0 / mean_);
}

PhasedLagDelay::PhasedLagDelay(std::unique_ptr<DelayModel> base,
                               std::set<ProcessId> lagged, double factor,
                               Time until)
    : base_(std::move(base)), lagged_(std::move(lagged)), factor_(factor),
      until_(until) {
  CHC_CHECK(base_ != nullptr, "base delay model required");
  CHC_CHECK(factor >= 1.0, "lag factor must be >= 1");
  CHC_CHECK(until > 0.0, "lag window must be positive");
}

Time PhasedLagDelay::delay(ProcessId from, ProcessId to, Time now, Rng& rng) {
  const Time base = base_->delay(from, to, now, rng);
  if (now < until_ &&
      (lagged_.count(from) != 0 || lagged_.count(to) != 0)) {
    return base * factor_;
  }
  return base;
}

StormDelay::StormDelay(std::unique_ptr<DelayModel> base,
                       std::vector<StormWindow> storms)
    : base_(std::move(base)), storms_(std::move(storms)) {
  CHC_CHECK(base_ != nullptr, "base delay model required");
  for (const StormWindow& w : storms_) {
    CHC_CHECK(w.t1 > w.t0, "storm window must have t1 > t0");
    CHC_CHECK(w.factor >= 1.0, "storm factor must be >= 1");
  }
}

Time StormDelay::delay(ProcessId from, ProcessId to, Time now, Rng& rng) {
  const Time base = base_->delay(from, to, now, rng);
  double factor = 1.0;
  for (const StormWindow& w : storms_) {
    if (now >= w.t0 && now < w.t1) factor *= w.factor;
  }
  return base * factor;
}

}  // namespace chc::sim
