#include "transport/payload.hpp"

#include <utility>

#include "core/process_cc.hpp"
#include "dsm/store.hpp"
#include "geometry/intern.hpp"
#include "rbc/slotcast.hpp"

namespace chc::transport {

namespace {

/// [u64] prefix followed by an embedded codec value (the trailing bytes are
/// exactly one codec object, so no inner length prefix is needed).
std::optional<std::uint64_t> split_u64_prefix(const codec::Buffer& buf,
                                              codec::Buffer& rest) {
  if (buf.size() < 8) return std::nullopt;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(buf[static_cast<std::size_t>(i)])
         << (8 * i);
  }
  rest.assign(buf.begin() + 8, buf.end());
  return v;
}

codec::Buffer with_u64_prefix(std::uint64_t v, const codec::Buffer& body) {
  codec::Buffer out;
  out.reserve(8 + body.size());
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  }
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

codec::Buffer encode_u64(std::uint64_t v) {
  codec::Writer w;
  w.put_u64(v);
  return w.take();
}

std::optional<std::uint64_t> decode_u64(const codec::Buffer& buf) {
  codec::Reader r(buf);
  const auto v = r.read_u64();
  if (!v || !r.exhausted()) return std::nullopt;
  return v;
}

}  // namespace

bool wire_supported(int tag) {
  return dsm::GrowOnlyStore::handles(tag) || tag == core::kTagRound ||
         tag == core::kTagNaiveInput || rbc::SlotBroadcast::handles(tag);
}

std::optional<codec::Buffer> encode_payload(int tag,
                                            const std::any& payload) {
  switch (tag) {
    case dsm::kTagWrite: {
      const auto* m = std::any_cast<dsm::WriteMsg>(&payload);
      if (m == nullptr) return std::nullopt;
      return with_u64_prefix(m->origin, codec::encode(m->value));
    }
    case dsm::kTagWriteAck:
    case dsm::kTagStoreAck: {
      const auto* m = std::any_cast<dsm::AckMsg>(&payload);
      if (m == nullptr) return std::nullopt;
      return encode_u64(m->op);
    }
    case dsm::kTagGather: {
      const auto* m = std::any_cast<dsm::GatherMsg>(&payload);
      if (m == nullptr) return std::nullopt;
      return encode_u64(m->op);
    }
    case dsm::kTagGatherReply:
    case dsm::kTagStore: {
      const auto* m = std::any_cast<dsm::ViewMsg>(&payload);
      if (m == nullptr) return std::nullopt;
      return with_u64_prefix(m->op, codec::encode(m->view));
    }
    case core::kTagRound: {
      const auto* m = std::any_cast<core::RoundMsg>(&payload);
      if (m == nullptr || m->h == nullptr) return std::nullopt;
      return with_u64_prefix(m->round, codec::encode(*m->h));
    }
    case core::kTagNaiveInput: {
      const auto* v = std::any_cast<geo::Vec>(&payload);
      if (v == nullptr) return std::nullopt;
      return codec::encode(*v);
    }
    case rbc::kTagSlotInit:
    case rbc::kTagSlotEcho:
    case rbc::kTagSlotReady: {
      // [u64 origin][u32 slot][u32 len][len opaque bytes]; the slot payload
      // stays opaque here — the Byzantine protocol decodes it itself.
      const auto* m = std::any_cast<rbc::SlotMsg>(&payload);
      if (m == nullptr) return std::nullopt;
      codec::Writer w;
      w.put_u64(m->origin);
      w.put_u32(m->slot);
      w.put_u32(static_cast<std::uint32_t>(m->bytes.size()));
      codec::Buffer out = w.take();
      out.insert(out.end(), m->bytes.begin(), m->bytes.end());
      return out;
    }
    default:
      return std::nullopt;
  }
}

std::optional<std::any> decode_payload(int tag, const codec::Buffer& buf) {
  switch (tag) {
    case dsm::kTagWrite: {
      codec::Buffer rest;
      const auto origin = split_u64_prefix(buf, rest);
      if (!origin) return std::nullopt;
      auto vec = codec::decode_vec(rest);
      if (!vec) return std::nullopt;
      return std::any(dsm::WriteMsg{static_cast<sim::ProcessId>(*origin),
                                    std::move(*vec)});
    }
    case dsm::kTagWriteAck:
    case dsm::kTagStoreAck: {
      const auto op = decode_u64(buf);
      if (!op) return std::nullopt;
      return std::any(dsm::AckMsg{*op});
    }
    case dsm::kTagGather: {
      const auto op = decode_u64(buf);
      if (!op) return std::nullopt;
      return std::any(dsm::GatherMsg{*op});
    }
    case dsm::kTagGatherReply:
    case dsm::kTagStore: {
      codec::Buffer rest;
      const auto op = split_u64_prefix(buf, rest);
      if (!op) return std::nullopt;
      auto view = codec::decode_view(rest);
      if (!view) return std::nullopt;
      return std::any(dsm::ViewMsg{*op, std::move(*view)});
    }
    case core::kTagRound: {
      codec::Buffer rest;
      const auto round = split_u64_prefix(buf, rest);
      if (!round) return std::nullopt;
      auto poly = codec::decode_polytope(rest);
      if (!poly) return std::nullopt;
      return std::any(core::RoundMsg{static_cast<std::size_t>(*round),
                                     geo::intern(std::move(*poly))});
    }
    case core::kTagNaiveInput: {
      auto vec = codec::decode_vec(buf);
      if (!vec) return std::nullopt;
      return std::any(std::move(*vec));
    }
    case rbc::kTagSlotInit:
    case rbc::kTagSlotEcho:
    case rbc::kTagSlotReady: {
      codec::Reader r(buf);
      const auto origin = r.read_u64();
      const auto slot = r.read_u32();
      const auto len = r.read_u32();
      if (!origin || !slot || !len) return std::nullopt;
      // Cap before allocating: a Byzantine length field must not drive an
      // allocation; the value itself may still exceed SlotBroadcast's
      // max_payload — the protocol layer rejects that semantically.
      if (*len > (1u << 20) || r.remaining() != *len) return std::nullopt;
      rbc::SlotMsg m;
      m.origin = static_cast<sim::ProcessId>(*origin);
      m.slot = *slot;
      m.bytes.assign(buf.end() - static_cast<std::ptrdiff_t>(*len),
                     buf.end());
      return std::any(std::move(m));
    }
    default:
      return std::nullopt;
  }
}

std::optional<codec::RelFrame> to_rel_frame(const net::RelData& d) {
  if (d.payload == nullptr) return std::nullopt;
  auto inner = encode_payload(d.tag, *d.payload);
  if (!inner) return std::nullopt;
  codec::RelFrame f;
  f.seq = d.seq;
  f.cum_ack = d.cum_ack;
  f.inner_tag = d.tag;
  f.src_epoch = d.src_epoch;
  f.dst_epoch = d.dst_epoch;
  f.inner = std::move(*inner);
  return f;
}

std::optional<net::RelData> from_rel_frame(const codec::RelFrame& f) {
  auto payload = decode_payload(f.inner_tag, f.inner);
  if (!payload) return std::nullopt;
  net::RelData d;
  d.seq = f.seq;
  d.cum_ack = f.cum_ack;
  d.tag = f.inner_tag;
  d.payload = sim::make_payload(std::move(*payload));
  d.src_epoch = f.src_epoch;
  d.dst_epoch = f.dst_epoch;
  return d;
}

codec::RelAckFrame to_rel_ack(const net::RelAck& a) {
  codec::RelAckFrame f;
  f.cum_ack = a.cum_ack;
  f.src_epoch = a.src_epoch;
  f.dst_epoch = a.dst_epoch;
  return f;
}

net::RelAck from_rel_ack(const codec::RelAckFrame& f) {
  net::RelAck a;
  a.cum_ack = f.cum_ack;
  a.src_epoch = f.src_epoch;
  a.dst_epoch = f.dst_epoch;
  return a;
}

}  // namespace chc::transport
