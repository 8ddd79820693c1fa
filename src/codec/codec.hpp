// Binary wire format for the library's message payloads.
//
// The in-process runtimes pass payloads as shared, immutable std::any
// values (sim::Payload), but a deployment across address spaces needs
// bytes. This codec defines a compact little-endian, length-prefixed
// format for every payload type the protocols exchange, with strict
// bounds-checked decoding (a malformed or truncated buffer never reads out
// of range — Byzantine peers may send garbage). It also gives the
// experiments a principled message-size accounting (bytes on the wire,
// not just message counts).
//
// Format primitives:
//   u32 / u64  — little-endian fixed width
//   f64        — IEEE-754 bits as u64
//   vec        — u32 dim, then dim f64
//   polytope   — u32 vertex count, then vertices (V-representation; the
//                receiver re-canonicalizes, so H-rep is never trusted)
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "dsm/store.hpp"
#include "geometry/polytope.hpp"
#include "geometry/vec.hpp"

namespace chc::codec {

using Buffer = std::vector<std::uint8_t>;

/// Bounds-checked sequential reader. All read_* return nullopt on
/// truncation or malformed data instead of throwing (decoding is on the
/// adversarial path).
class Reader {
 public:
  explicit Reader(const Buffer& buf) : buf_(buf) {}

  std::optional<std::uint32_t> read_u32();
  std::optional<std::uint64_t> read_u64();
  std::optional<double> read_f64();
  std::optional<geo::Vec> read_vec();

  bool exhausted() const { return pos_ == buf_.size(); }
  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  const Buffer& buf_;
  std::size_t pos_ = 0;
};

/// Sequential writer.
class Writer {
 public:
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_f64(double v);
  void put_vec(const geo::Vec& v);

  Buffer take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  Buffer buf_;
};

// --- Vec ---------------------------------------------------------------
Buffer encode(const geo::Vec& v);
std::optional<geo::Vec> decode_vec(const Buffer& buf);

// --- Polytope (V-representation; empty polytopes carry dim only) --------
Buffer encode(const geo::Polytope& p);
/// Re-canonicalizes through Polytope::from_points — the sender's claimed
/// structure is never trusted. `max_vertices` rejects absurd buffers from
/// Byzantine peers before any geometry runs.
std::optional<geo::Polytope> decode_polytope(const Buffer& buf,
                                             std::size_t max_vertices = 4096);

// --- dsm::View (slot array with optional entries) ------------------------
Buffer encode(const dsm::View& view);
std::optional<dsm::View> decode_view(const Buffer& buf,
                                     std::size_t max_slots = 4096);

// --- Reliable-channel frames (net/reliable_channel.hpp wire format) ------
// DATA frame header: seq, cumulative ack, inner tag, sender/destination
// epochs (crash-recover incarnations), then the inner payload as
// length-prefixed opaque bytes (encoded with this codec by the tag's
// documented type). ACK frames carry the cumulative ack plus both epochs.
// This is the byte format a cross-address-space ReliableChannel would put
// on the wire; the in-process runtimes keep the inner payload as the
// net::RelData's shared sim::Payload.
struct RelFrame {
  std::uint64_t seq = 0;
  std::uint64_t cum_ack = 0;
  std::int32_t inner_tag = 0;
  std::uint32_t src_epoch = 0;
  std::uint32_t dst_epoch = 0;
  Buffer inner;  ///< encoded inner payload (opaque at this layer)
};

/// Standalone cumulative acknowledgement (mirror of net::RelAck).
struct RelAckFrame {
  std::uint64_t cum_ack = 0;
  std::uint32_t src_epoch = 0;
  std::uint32_t dst_epoch = 0;
};

Buffer encode(const RelFrame& f);
/// `max_inner` rejects absurd nested-payload lengths before allocation.
std::optional<RelFrame> decode_rel_frame(const Buffer& buf,
                                         std::size_t max_inner = 1 << 20);

Buffer encode_rel_ack(const RelAckFrame& a);
std::optional<RelAckFrame> decode_rel_ack(const Buffer& buf);

// --- Transport handshake (src/transport TCP connections) -----------------
// First frame on every connection: names the dialing node and its
// crash-recover epoch, so the acceptor can bind the socket to a peer id
// before any RelFrame arrives, and both sides can detect a cluster-size
// mismatch (a misconfigured node) instead of desynchronizing.
struct HelloFrame {
  std::uint64_t node = 0;     ///< dialing node's process id
  std::uint32_t epoch = 0;    ///< dialing node's incarnation
  std::uint64_t cluster = 0;  ///< dialing node's view of the cluster size
};

Buffer encode_hello(const HelloFrame& h);
std::optional<HelloFrame> decode_hello(const Buffer& buf);

}  // namespace chc::codec
