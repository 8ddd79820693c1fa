// std::any <-> bytes for every protocol payload the cluster ships.
//
// The in-process runtimes pass sim::Message payloads as sim::Payload, a
// shared immutable std::any; a real deployment needs bytes. This module
// maps each wire tag the reliable channel can carry as an *inner* payload
// onto the byte codec:
//
//   tag 100 dsm::WriteMsg      [u64 origin][vec]
//   tag 101 dsm::AckMsg        [u64 op]
//   tag 102 dsm::GatherMsg     [u64 op]
//   tag 103 dsm::ViewMsg       [u64 op][view]
//   tag 104 dsm::ViewMsg       [u64 op][view]
//   tag 105 dsm::AckMsg        [u64 op]
//   tag 200 core::RoundMsg     [u64 round][polytope]
//   tag 201 geo::Vec           [vec]                  (naive round-0 ablation)
//   tag 410 rbc::SlotMsg       [u64 origin][u32 slot][u32 len][len bytes]
//   tag 411 rbc::SlotMsg       (same; Byzantine-track slot broadcast ECHO)
//   tag 412 rbc::SlotMsg       (same; Byzantine-track slot broadcast READY)
//
// plus the shim's own frames (net::RelData <-> codec::RelFrame with the
// inner payload nested through this same mapping, and net::RelAck <->
// codec::RelAckFrame). Decoding is bounds-checked end to end: a malformed
// buffer yields nullopt, never UB — remote bytes are adversarial input.
#pragma once

#include <any>
#include <optional>

#include "codec/codec.hpp"
#include "net/reliable_channel.hpp"

namespace chc::transport {

/// True iff `tag` names a payload this codec can put on the wire.
bool wire_supported(int tag);

/// Encodes a protocol payload (inner tags listed above). nullopt when the
/// tag is unsupported or the std::any holds the wrong type.
std::optional<codec::Buffer> encode_payload(int tag, const std::any& payload);

/// Decodes a protocol payload. The tag-200 polytope is bounded by
/// codec::decode_polytope's default vertex cap.
std::optional<std::any> decode_payload(int tag, const codec::Buffer& buf);

/// RelData -> wire frame. nullopt when the inner payload is unsupported.
std::optional<codec::RelFrame> to_rel_frame(const net::RelData& d);

/// Wire frame -> RelData (inner payload decoded through decode_payload and
/// wrapped into the frame's one sim::Payload).
std::optional<net::RelData> from_rel_frame(const codec::RelFrame& f);

codec::RelAckFrame to_rel_ack(const net::RelAck& a);
net::RelAck from_rel_ack(const codec::RelAckFrame& f);

}  // namespace chc::transport
