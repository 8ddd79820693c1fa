// Reliable-channel protocol shim: exactly-once FIFO over fair-lossy links.
//
// Wraps any sim::Process and rebuilds the paper's channel model on top of
// a network that drops, duplicates and reorders (net::FaultyLinkModel), so
// Algorithm CC, Bracha RBC and the stable-vector primitive run *unchanged*
// on lossy networks. Per directed channel the shim maintains:
//
//   sender side    per-message sequence numbers; an unacked window kept
//                  for retransmission, each frame with its own deadline
//                  and exponential backoff + jitter; one timer per shim,
//                  armed at the earliest deadline (RFC 6298 §5);
//   receiver side  cumulative acks (piggybacked on data, standalone only
//                  when no reply carried them), a dedup filter (seq <
//                  expected), and a reorder buffer that releases messages
//                  to the wrapped process strictly in sequence order.
//
// Silent peers: once a peer's oldest unacked frame has been retransmitted
// twice, the peer is silent and only that frame is retransmitted (on its
// own backoff) until the peer is heard again — a crashed peer costs one
// probe per RTO, not the whole window, and the give-up still waits for the
// oldest frame's retry budget. The first DATA or ACK from the peer's
// current epoch ends the silence and sends the whole window at once, so a
// healed partition does not wait out the frozen deadlines. The next timed
// retransmission of a still-unacked oldest frame makes the peer silent
// again.
//
// Acks: duplicates and out-of-order frames are acked at once. An in-order
// delivery is acked standalone only when no DATA frame sent to that peer
// from the same callback (the wrapped process's reply) already carried the
// new cumulative ack (RFC 1122 §4.2.3.2).
//
// Fair-lossy links (drop probability < 1, independent per send) guarantee
// a retransmitted packet eventually gets through and its ack eventually
// returns, so every send to a live peer is delivered to the inner process
// exactly once, in order. A *crashed* peer never acks; once its oldest
// frame exhausts ReliableParams::max_retries the channel is abandoned so
// executions still quiesce.
//
// Crash-recover (epochs): a process restarting with fresh state would
// deadlock the old protocol — its sequence numbers restart at 0, so peers
// would suppress everything as duplicates, and their own streams would
// look like an unfillable gap. Every frame therefore carries the sender's
// *epoch* (incarnation number) and the sender's last known epoch of the
// destination. Receive side, in order: a frame from an older epoch than
// the recorded one is stale wreckage of a dead incarnation and is dropped;
// a frame from a *newer* epoch first resets the channel (learn before
// gate: receive stream restarts at 0, the unacked window is renumbered
// from 0 and resent, a previous give-up is rescinded); then, if the frame
// was addressed to an epoch other than ours, its content is ignored but a
// bare ack is returned so the peer learns our epoch quickly. Two crossed
// restarts converge because each side's first frame teaches the other its
// new epoch.
//
// Payload sharing: the wrapped process's payload is wrapped into one
// sim::Payload where it enters the shim (CtxWrap). The DATA frame, the
// unacked window entry kept for retransmission, every retransmitted or
// renumbered frame, the receiver's reorder buffer and the Message finally
// delivered to the inner process all hold that same immutable object.
//
// Tag/token budget: wire tags 900-901 and timer token 910000 are reserved
// for the shim; wrapped protocols must not use them (the repo's layers use
// tags 100-412 and tokens < 1000).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <vector>

#include "net/policy.hpp"
#include "obs/trace.hpp"
#include "sim/process.hpp"

namespace chc::net {

/// Wire tags of the shim (payloads: RelData / RelAck).
inline constexpr int kTagRelData = 900;
inline constexpr int kTagRelAck = 901;
/// Timer token reserved for the shim's retransmission deadline timer.
inline constexpr int kRelTickToken = 910'000;

/// DATA frame: one wrapped protocol message plus channel bookkeeping.
struct RelData {
  std::uint64_t seq = 0;      ///< per directed channel, from 0
  std::uint64_t cum_ack = 0;  ///< piggyback: next seq expected from peer
  int tag = 0;                ///< wrapped message's tag
  sim::Payload payload;       ///< wrapped message's payload (shared)
  std::uint32_t src_epoch = 0;  ///< sender's incarnation
  std::uint32_t dst_epoch = 0;  ///< sender's view of the receiver's epoch
};

/// Standalone cumulative acknowledgement.
struct RelAck {
  std::uint64_t cum_ack = 0;  ///< next seq expected from the ack's target
  std::uint32_t src_epoch = 0;  ///< sender's incarnation
  std::uint32_t dst_epoch = 0;  ///< epoch of the stream being acked
};

/// Work counters of one shim instance (aggregate across processes with +=).
struct ShimStats {
  std::uint64_t data_sent = 0;    ///< fresh DATA frames (first transmission)
  std::uint64_t retransmits = 0;  ///< DATA frames re-sent (timer or heal)
  std::uint64_t acks_sent = 0;
  std::uint64_t delivered = 0;  ///< in-order deliveries to the inner process
  std::uint64_t dups_suppressed = 0;
  std::uint64_t buffered_out_of_order = 0;
  std::uint64_t sends_abandoned = 0;     ///< queued after channel gave up
  std::uint64_t channels_abandoned = 0;  ///< peers presumed crashed
  std::uint64_t stale_epoch_dropped = 0;  ///< frames from/for dead epochs
  std::uint64_t channel_resets = 0;       ///< peer restarts detected
  std::map<int, std::uint64_t> retransmit_by_tag;  ///< by wrapped tag

  ShimStats& operator+=(const ShimStats& o);
};

class ReliableChannel final : public sim::Process {
 public:
  /// `tracer` (optional) receives a kRetransmit event per re-sent frame and
  /// a kGiveUp event per abandoned channel. `epoch` is this instance's
  /// incarnation number — pass the simulator's incarnation counter when
  /// rebuilding a shim after a crash-recover.
  ReliableChannel(std::unique_ptr<sim::Process> inner, ReliableParams params,
                  obs::Tracer* tracer = nullptr, std::uint32_t epoch = 0);

  static bool handles(int tag) {
    return tag == kTagRelData || tag == kTagRelAck;
  }

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, const sim::Message& msg) override;
  void on_timer(sim::Context& ctx, int token) override;

  /// The wrapped process (for inspecting protocol state from outside).
  sim::Process& inner() { return *inner_; }
  const sim::Process& inner() const { return *inner_; }

  const ShimStats& stats() const { return stats_; }

  std::uint32_t epoch() const { return epoch_; }

  /// Largest backoff-inflated RTO among currently outstanding frames (0
  /// when nothing is in flight) — a gauge of how congested the channels
  /// look to the shim right now.
  double current_backoff() const;

 private:
  struct Outstanding {
    std::uint64_t seq = 0;
    int tag = 0;
    sim::Payload payload;
    sim::Time next_at = 0.0;  ///< earliest retransmission time
    sim::Time cur_rto = 0.0;
    std::size_t retries = 0;
  };

  /// Both directions of the channel to/from one peer.
  struct Peer {
    std::uint64_t next_seq = 0;        // sender: next seq to assign
    std::deque<Outstanding> window;    // sender: unacked, seq-ascending
    bool gave_up = false;              // sender: peer presumed crashed
    /// sender: the window's head has been retransmitted at least the
    /// threshold's number of times, the last one after the peer was last
    /// heard; only the head is retransmitted.
    bool silent = false;
    std::uint64_t recv_next = 0;       // receiver: next seq expected
    std::uint64_t ack_sent = 0;        // receiver: cum_ack of the last frame
    std::map<std::uint64_t, std::pair<int, sim::Payload>> reorder;
    std::uint32_t epoch = 0;           // last known peer incarnation
  };

  class CtxWrap;
  friend class CtxWrap;

  void ensure_peers(sim::Context& ctx);
  /// Makes a timer fire at `at` unless a pending one fires no later.
  void arm_at(sim::Context& ctx, sim::Time at);
  /// Arms the timer at the earliest deadline any window is waiting on.
  void arm(sim::Context& ctx);
  sim::Time jittered(sim::Time rto, Rng& rng) const;
  void reliable_send(sim::Context& ctx, sim::ProcessId to, int tag,
                     sim::Payload payload);
  void send_data(sim::Context& ctx, sim::ProcessId to, const Outstanding& o);
  void send_ack(sim::Context& ctx, sim::ProcessId to, std::uint32_t dst_epoch);
  void retransmit(sim::Context& ctx, sim::ProcessId to, Outstanding& o);
  void apply_ack(sim::ProcessId peer_id, std::uint64_t cum_ack);
  /// A frame of the peer's current epoch arrived: a silent peer gets its
  /// whole window at once.
  void heard(sim::Context& ctx, sim::ProcessId peer_id);
  /// The peer restarted with a newer epoch: restart the receive stream,
  /// renumber + resend the unacked window, rescind any give-up.
  void reset_peer(sim::Context& ctx, sim::ProcessId peer_id,
                  std::uint32_t new_epoch);
  void deliver_in_order(sim::Context& ctx, sim::ProcessId from,
                        const RelData& first);
  void deliver_to_inner(sim::Context& ctx, sim::ProcessId from, int tag,
                        sim::Payload payload);

  std::unique_ptr<sim::Process> inner_;
  ReliableParams params_;
  std::uint32_t epoch_ = 0;
  obs::Tracer disabled_tracer_;
  obs::Tracer* tracer_ = &disabled_tracer_;
  std::vector<Peer> peers_;  // sized on first callback
  /// Fire times of the deadline timers set and not yet fired (min-heap).
  std::priority_queue<sim::Time, std::vector<sim::Time>, std::greater<>>
      timers_;
  ShimStats stats_;
};

}  // namespace chc::net
