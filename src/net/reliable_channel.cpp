#include "net/reliable_channel.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.hpp"

namespace chc::net {

namespace {

/// Retransmissions of a peer's oldest unacked frame after which the peer
/// counts as silent: until it is heard again, only that frame is
/// retransmitted.
constexpr std::size_t kSilentAfter = 2;

constexpr sim::Time kNever = std::numeric_limits<sim::Time>::infinity();

}  // namespace

ShimStats& ShimStats::operator+=(const ShimStats& o) {
  data_sent += o.data_sent;
  retransmits += o.retransmits;
  acks_sent += o.acks_sent;
  delivered += o.delivered;
  dups_suppressed += o.dups_suppressed;
  buffered_out_of_order += o.buffered_out_of_order;
  sends_abandoned += o.sends_abandoned;
  channels_abandoned += o.channels_abandoned;
  stale_epoch_dropped += o.stale_epoch_dropped;
  channel_resets += o.channel_resets;
  for (const auto& [tag, count] : o.retransmit_by_tag) {
    retransmit_by_tag[tag] += count;
  }
  return *this;
}

/// Context seen by the wrapped process: sends are intercepted and carried
/// over the reliable channel; everything else forwards to the real context.
class ReliableChannel::CtxWrap final : public sim::Context {
 public:
  CtxWrap(ReliableChannel* shim, sim::Context* outer)
      : shim_(shim), outer_(outer) {}

  sim::ProcessId self() const override { return outer_->self(); }
  std::size_t n() const override { return outer_->n(); }
  sim::Time now() const override { return outer_->now(); }
  Rng& rng() override { return outer_->rng(); }

  void send(sim::ProcessId to, int tag, std::any payload) override {
    CHC_CHECK(!ReliableChannel::handles(tag),
              "wrapped process may not use the shim's reserved wire tags");
    shim_->reliable_send(*outer_, to, tag,
                         sim::make_payload(std::move(payload)));
  }

  void broadcast_others(int tag, const std::any& payload) override {
    // Per-recipient reliable sends: each wire transmission individually
    // consumes the sender's crash budget, preserving mid-broadcast-crash
    // partial delivery semantics at the wire level. Every recipient's
    // frame shares one copy of the payload.
    const sim::Payload shared = sim::make_payload(payload);
    for (sim::ProcessId to = 0; to < outer_->n(); ++to) {
      if (to == self()) continue;
      shim_->reliable_send(*outer_, to, tag, shared);
    }
  }

  void set_timer(sim::Time delay, int token) override {
    CHC_CHECK(token != kRelTickToken,
              "wrapped process may not use the shim's reserved timer token");
    outer_->set_timer(delay, token);
  }

 private:
  ReliableChannel* shim_;
  sim::Context* outer_;
};

ReliableChannel::ReliableChannel(std::unique_ptr<sim::Process> inner,
                                 ReliableParams params, obs::Tracer* tracer,
                                 std::uint32_t epoch)
    : inner_(std::move(inner)), params_(params), epoch_(epoch) {
  if (tracer != nullptr) tracer_ = tracer;
  CHC_CHECK(inner_ != nullptr, "null wrapped process");
  CHC_CHECK(params_.rto > 0.0, "timeouts must be > 0");
  CHC_CHECK(params_.backoff >= 1.0, "backoff factor must be >= 1");
  CHC_CHECK(params_.rto_max >= params_.rto, "rto_max below initial rto");
  CHC_CHECK(params_.jitter >= 0.0 && params_.jitter < 1.0,
            "jitter fraction must be in [0, 1)");
}

void ReliableChannel::ensure_peers(sim::Context& ctx) {
  if (peers_.empty()) peers_.resize(ctx.n());
}

void ReliableChannel::arm_at(sim::Context& ctx, sim::Time at) {
  if (!timers_.empty() && timers_.top() <= at) return;
  // Record the fire time exactly as the context computes it, so the timer
  // finds itself in timers_ when it fires (a context may only delay it).
  const sim::Time now = ctx.now();
  const sim::Time delay = at - now;
  timers_.push(now + delay);
  ctx.set_timer(delay, kRelTickToken);
}

void ReliableChannel::arm(sim::Context& ctx) {
  sim::Time earliest = kNever;
  for (const Peer& peer : peers_) {
    if (peer.window.empty()) continue;
    if (peer.silent) {
      earliest = std::min(earliest, peer.window.front().next_at);
      continue;
    }
    for (const Outstanding& o : peer.window) {
      earliest = std::min(earliest, o.next_at);
    }
  }
  if (earliest != kNever) arm_at(ctx, earliest);
}

sim::Time ReliableChannel::jittered(sim::Time rto, Rng& rng) const {
  if (params_.jitter == 0.0) return rto;
  return rto * rng.uniform(1.0 - params_.jitter, 1.0 + params_.jitter);
}

void ReliableChannel::send_data(sim::Context& ctx, sim::ProcessId to,
                                const Outstanding& o) {
  Peer& peer = peers_[to];
  peer.ack_sent = peer.recv_next;
  ctx.send(to, kTagRelData,
           RelData{o.seq, peer.recv_next, o.tag, o.payload, epoch_,
                   peer.epoch});
}

void ReliableChannel::send_ack(sim::Context& ctx, sim::ProcessId to,
                               std::uint32_t dst_epoch) {
  Peer& peer = peers_[to];
  peer.ack_sent = peer.recv_next;
  ++stats_.acks_sent;
  ctx.send(to, kTagRelAck, RelAck{peer.recv_next, epoch_, dst_epoch});
}

void ReliableChannel::reliable_send(sim::Context& ctx, sim::ProcessId to,
                                    int tag, sim::Payload payload) {
  ensure_peers(ctx);
  Peer& peer = peers_[to];
  if (peer.gave_up) {
    ++stats_.sends_abandoned;
    return;
  }
  Outstanding o;
  o.seq = peer.next_seq++;
  o.tag = tag;
  o.payload = std::move(payload);  // shared with every (re)transmission
  o.cur_rto = params_.rto;
  o.next_at = ctx.now() + jittered(params_.rto, ctx.rng());
  peer.window.push_back(std::move(o));
  ++stats_.data_sent;
  const Outstanding& sent = peer.window.back();
  send_data(ctx, to, sent);
  // A silent peer's new frames wait behind the probe of its oldest one.
  if (!peer.silent) arm_at(ctx, sent.next_at);
}

void ReliableChannel::retransmit(sim::Context& ctx, sim::ProcessId to,
                                 Outstanding& o) {
  const sim::Time now = ctx.now();
  ++o.retries;
  ++stats_.retransmits;
  ++stats_.retransmit_by_tag[o.tag];
  tracer_->emit_with([&] {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kRetransmit;
    e.t = now;
    e.p = ctx.self();
    e.peer = to;
    e.tag = o.tag;
    e.aux = o.retries;
    return e;
  });
  o.cur_rto = std::min(o.cur_rto * params_.backoff, params_.rto_max);
  o.next_at = now + jittered(o.cur_rto, ctx.rng());
  send_data(ctx, to, o);
}

void ReliableChannel::apply_ack(sim::ProcessId peer_id,
                                std::uint64_t cum_ack) {
  Peer& peer = peers_[peer_id];
  while (!peer.window.empty() && peer.window.front().seq < cum_ack) {
    peer.window.pop_front();
  }
}

void ReliableChannel::heard(sim::Context& ctx, sim::ProcessId peer_id) {
  Peer& peer = peers_[peer_id];
  if (!peer.silent) return;
  peer.silent = false;
  // The frozen part of the window is overdue: send all of it now rather
  // than wait for deadlines that passed while only the head was probed.
  for (Outstanding& o : peer.window) {
    retransmit(ctx, peer_id, o);
    arm_at(ctx, o.next_at);
  }
}

void ReliableChannel::reset_peer(sim::Context& ctx, sim::ProcessId peer_id,
                                 std::uint32_t new_epoch) {
  Peer& peer = peers_[peer_id];
  peer.epoch = new_epoch;
  peer.recv_next = 0;
  peer.ack_sent = 0;
  peer.reorder.clear();
  peer.gave_up = false;
  peer.silent = false;
  ++stats_.channel_resets;
  // The restarted peer lost its receive state, so whatever of our stream it
  // had already consumed is gone with it. Restart the conversation: the
  // unacked window becomes the new stream, renumbered from 0 with a fresh
  // retry budget, and goes out immediately under the new epochs. Frames the
  // dead incarnation had acked are not resent — that loss is exactly the
  // "state loss" the recovery semantics promise.
  std::uint64_t seq = 0;
  const sim::Time now = ctx.now();
  for (Outstanding& o : peer.window) {
    o.seq = seq++;
    o.retries = 0;
    o.cur_rto = params_.rto;
    o.next_at = now + jittered(params_.rto, ctx.rng());
    send_data(ctx, peer_id, o);
    arm_at(ctx, o.next_at);
  }
  peer.next_seq = seq;
}

void ReliableChannel::deliver_to_inner(sim::Context& ctx, sim::ProcessId from,
                                       int tag, sim::Payload payload) {
  ++stats_.delivered;
  sim::Message m{from, ctx.self(), tag, std::move(payload)};
  CtxWrap wrapped(this, &ctx);
  inner_->on_message(wrapped, m);
}

void ReliableChannel::deliver_in_order(sim::Context& ctx, sim::ProcessId from,
                                       const RelData& first) {
  Peer& peer = peers_[from];
  ++peer.recv_next;
  deliver_to_inner(ctx, from, first.tag, first.payload);
  // Release any buffered successors that are now in sequence.
  for (auto it = peer.reorder.find(peer.recv_next);
       it != peer.reorder.end();
       it = peer.reorder.find(peer.recv_next)) {
    auto [tag, payload] = std::move(it->second);
    peer.reorder.erase(it);
    ++peer.recv_next;
    deliver_to_inner(ctx, from, tag, std::move(payload));
  }
}

void ReliableChannel::on_start(sim::Context& ctx) {
  ensure_peers(ctx);
  CtxWrap wrapped(this, &ctx);
  inner_->on_start(wrapped);
}

void ReliableChannel::on_message(sim::Context& ctx, const sim::Message& msg) {
  ensure_peers(ctx);
  if (msg.tag == kTagRelData) {
    const auto& data = std::any_cast<const RelData&>(*msg.payload);
    Peer& peer = peers_[msg.from];
    // Epoch gates, learn-before-gate order (see header comment).
    if (data.src_epoch < peer.epoch) {
      ++stats_.stale_epoch_dropped;  // wreckage of a dead incarnation
      return;
    }
    if (data.src_epoch > peer.epoch) {
      reset_peer(ctx, msg.from, data.src_epoch);
    }
    if (data.dst_epoch != epoch_) {
      // Addressed to a previous incarnation of us: the seq belongs to a
      // conversation we have no state for. Ignore the content but teach
      // the peer our epoch with a bare ack so it resets quickly.
      ++stats_.stale_epoch_dropped;
      heard(ctx, msg.from);
      send_ack(ctx, msg.from, data.src_epoch);
      return;
    }
    apply_ack(msg.from, data.cum_ack);
    heard(ctx, msg.from);
    if (data.seq < peer.recv_next) {
      ++stats_.dups_suppressed;  // already delivered; ack below repairs
    } else if (data.seq == peer.recv_next) {
      deliver_in_order(ctx, msg.from, data);
      // A reply sent from the inner callback already carries this ack.
      if (peer.ack_sent == peer.recv_next) return;
    } else if (peer.reorder
                   .emplace(data.seq, std::make_pair(data.tag, data.payload))
                   .second) {
      ++stats_.buffered_out_of_order;  // gap: hold until in sequence
    } else {
      ++stats_.dups_suppressed;  // duplicate of an already-buffered frame
    }
    send_ack(ctx, msg.from, data.src_epoch);
  } else if (msg.tag == kTagRelAck) {
    const auto& ack = std::any_cast<const RelAck&>(*msg.payload);
    Peer& peer = peers_[msg.from];
    if (ack.src_epoch < peer.epoch) {
      ++stats_.stale_epoch_dropped;
      return;
    }
    if (ack.src_epoch > peer.epoch) {
      reset_peer(ctx, msg.from, ack.src_epoch);
    }
    if (ack.dst_epoch != epoch_) {
      ++stats_.stale_epoch_dropped;  // acks a stream we no longer own
    } else {
      apply_ack(msg.from, ack.cum_ack);
    }
    heard(ctx, msg.from);
  } else {
    // Traffic from an unwrapped peer: pass through (mixed deployments).
    CtxWrap wrapped(this, &ctx);
    inner_->on_message(wrapped, msg);
  }
}

void ReliableChannel::on_timer(sim::Context& ctx, int token) {
  if (token != kRelTickToken) {
    CtxWrap wrapped(this, &ctx);
    inner_->on_timer(wrapped, token);
    return;
  }
  const sim::Time now = ctx.now();
  while (!timers_.empty() && timers_.top() <= now) timers_.pop();
  for (sim::ProcessId p = 0; p < peers_.size(); ++p) {
    Peer& peer = peers_[p];
    // A silent peer is probed with its oldest frame only.
    const std::size_t span =
        peer.silent ? std::min<std::size_t>(1, peer.window.size())
                    : peer.window.size();
    for (std::size_t i = 0; i < span; ++i) {
      Outstanding& o = peer.window[i];
      if (o.next_at > now) continue;
      if (o.retries >= params_.max_retries) {
        // Retry budget exhausted: the peer is presumed crashed — abandon
        // the whole channel so the execution can quiesce. A later frame
        // from a newer epoch of the peer rescinds this (reset_peer).
        peer.gave_up = true;
        peer.silent = false;
        peer.window.clear();
        ++stats_.channels_abandoned;
        tracer_->emit_with([&] {
          obs::TraceEvent e;
          e.kind = obs::EventKind::kGiveUp;
          e.t = now;
          e.p = ctx.self();
          e.peer = p;
          return e;
        });
        break;
      }
      retransmit(ctx, p, o);
      if (i == 0 && o.retries >= kSilentAfter) peer.silent = true;
    }
  }
  arm(ctx);
}

double ReliableChannel::current_backoff() const {
  double max_rto = 0.0;
  for (const Peer& peer : peers_) {
    for (const Outstanding& o : peer.window) {
      max_rto = std::max(max_rto, o.cur_rto);
    }
  }
  return max_rto;
}

}  // namespace chc::net
