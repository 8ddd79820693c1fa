#include "net/faulty_link.hpp"

#include "common/check.hpp"

namespace chc::net {

namespace {

/// ChannelPolicy's constructor already clamps rates; re-check
/// here so raw field assignment cannot smuggle bad values in, and enforce
/// the extra fair-lossy restriction for non-scheduled models.
void validate_policy(const NetworkPolicy& p, bool allow_full_drop) {
  const auto validate = [&](const ChannelPolicy& f) {
    CHC_CHECK(f.drop_rate >= 0.0 && f.drop_rate <= 1.0,
              "drop_rate must be in [0, 1]");
    CHC_CHECK(f.dup_rate >= 0.0 && f.dup_rate <= 1.0,
              "dup_rate must be in [0, 1]");
    CHC_CHECK(f.reorder_rate >= 0.0 && f.reorder_rate <= 1.0,
              "reorder_rate must be in [0, 1]");
    if (!allow_full_drop) {
      CHC_CHECK(f.drop_rate < 1.0, "drop_rate 1.0 is not fair-lossy");
    }
  };
  validate(p.link);
  for (const auto& [channel, faults] : p.overrides) {
    (void)channel;
    validate(faults);
  }
}

}  // namespace

FaultyLinkModel::FaultyLinkModel(NetworkPolicy policy)
    : policy_(std::move(policy)) {
  validate_policy(policy_, /*allow_full_drop=*/false);
}

FaultyLinkModel::FaultyLinkModel(PolicySchedule schedule)
    : schedule_(std::move(schedule)) {
  CHC_CHECK(!schedule_.empty(), "policy schedule must have at least a phase");
  // Partition phases (drop 1.0) are allowed: liveness across a scheduled
  // partition is the heal phase's job, not the link's.
  for (const PolicySchedule::Phase& ph : schedule_.phases()) {
    validate_policy(ph.policy, /*allow_full_drop=*/true);
  }
}

sim::LinkFaultDecision FaultyLinkModel::decide(sim::ProcessId from,
                                               sim::ProcessId to, int tag,
                                               sim::Time now, Rng& rng) {
  (void)tag;
  const NetworkPolicy& p = schedule_.empty() ? policy_ : schedule_.active(now);
  const ChannelPolicy& f = p.for_channel(from, to);
  sim::LinkFaultDecision d;
  // Draw every coin and the extra delay regardless of earlier outcomes so
  // the RNG stream position per send is fixed — decisions on later sends
  // never shift when a rate is tuned.
  const bool drop = rng.bernoulli(f.drop_rate);
  const bool dup = rng.bernoulli(f.dup_rate);
  const bool reorder = rng.bernoulli(f.reorder_rate);
  const double extra = rng.uniform(kReorderDelayMin, kReorderDelayMax);
  if (drop) {
    d.drop = true;
    return d;
  }
  if (dup) d.copies = 2;
  if (reorder) {
    d.bypass_fifo = true;
    d.extra_delay = extra;
  }
  return d;
}

}  // namespace chc::net
