// Link-fault injection hook.
//
// The paper's system model assumes reliable, exactly-once, FIFO channels.
// Real networks only provide *fair-lossy* links: a message may be dropped,
// duplicated, or delivered out of order, but a message retransmitted
// forever is eventually delivered. The simulator exposes that weaker
// model through this hook: every accepted send
// is first submitted to an optional LinkFaultModel, which decides the
// message's fate. The net/ module provides the concrete policy-driven
// implementation (net::FaultyLinkModel) and the recovery layer
// (net::ReliableChannel) that rebuilds the strong model on top.
//
// The hook lives in sim/ (not net/) so the simulator needs no dependency
// on the net module; with no model installed, behaviour is bit-for-bit the
// seed semantics.
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "sim/message.hpp"

namespace chc::sim {

/// The fate of one accepted send, as decided by a LinkFaultModel.
struct LinkFaultDecision {
  /// Message vanishes (never enqueued). Overrides every other field.
  bool drop = false;
  /// Total copies enqueued (>= 1; values > 1 model duplication). Each copy
  /// draws an independent delay from the simulator's DelayModel.
  std::size_t copies = 1;
  /// Added to every copy's delay (reordering fuel).
  Time extra_delay = 0.0;
  /// Exempt this message from the per-channel FIFO clamp: it neither waits
  /// for nor advances the channel front, so later sends may overtake it.
  bool bypass_fifo = false;
};

/// Strategy interface consulted once per accepted send.
///
/// Implementations must be stateless apart from their configuration and
/// draw only from the Rng passed in, so an execution stays a pure function
/// of its seed.
class LinkFaultModel {
 public:
  virtual ~LinkFaultModel() = default;

  virtual LinkFaultDecision decide(ProcessId from, ProcessId to, int tag,
                                   Time now, Rng& rng) = 0;
};

}  // namespace chc::sim
