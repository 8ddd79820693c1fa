// Payload codec fuzz: round-trip for EVERY wire-supported protocol tag
// (including the Byzantine-track slot-broadcast tags), plus rejection of
// truncated and bit-corrupted frames — remote bytes are adversarial input
// and must yield nullopt, never UB or a bogus decoded value.
#include <gtest/gtest.h>

#include <any>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "common/rng.hpp"
#include "core/process_cc.hpp"
#include "dsm/store.hpp"
#include "geometry/polytope.hpp"
#include "rbc/slotcast.hpp"
#include "transport/payload.hpp"

namespace chc::transport {
namespace {

/// Every supported tag with a representative payload.
std::vector<std::pair<int, std::any>> sample_payloads() {
  std::vector<std::pair<int, std::any>> out;
  out.emplace_back(dsm::kTagWrite,
                   dsm::WriteMsg{3, geo::Vec{1.5, -2.25}});
  out.emplace_back(dsm::kTagWriteAck, dsm::AckMsg{77});
  out.emplace_back(dsm::kTagGather, dsm::GatherMsg{12});
  dsm::View view(3);
  view[0] = geo::Vec{0.5, 0.5};
  view[2] = geo::Vec{-1.0, 2.0};
  out.emplace_back(dsm::kTagGatherReply, dsm::ViewMsg{9, view});
  out.emplace_back(dsm::kTagStore, dsm::ViewMsg{10, view});
  out.emplace_back(dsm::kTagStoreAck, dsm::AckMsg{10});
  out.emplace_back(
      core::kTagRound,
      core::RoundMsg{4, geo::Polytope::from_points(
                            {geo::Vec{0.0, 0.0}, geo::Vec{1.0, 0.0},
                             geo::Vec{0.0, 1.0}})});
  out.emplace_back(core::kTagNaiveInput, geo::Vec{0.25, -0.75});
  out.emplace_back(rbc::kTagSlotInit,
                   rbc::SlotMsg{2, 0, {0xDE, 0xAD, 0xBE, 0xEF}});
  out.emplace_back(rbc::kTagSlotEcho, rbc::SlotMsg{0, 7, {}});
  out.emplace_back(rbc::kTagSlotReady,
                   rbc::SlotMsg{5, 3, rbc::Bytes(100, 0x11)});
  return out;
}

bool payload_equal(int tag, const std::any& a, const std::any& b);

bool vec_equal(const geo::Vec& x, const geo::Vec& y) {
  if (x.dim() != y.dim()) return false;
  for (std::size_t i = 0; i < x.dim(); ++i) {
    if (x[i] != y[i]) return false;
  }
  return true;
}

bool payload_equal(int tag, const std::any& a, const std::any& b) {
  switch (tag) {
    case dsm::kTagWrite: {
      const auto& x = std::any_cast<const dsm::WriteMsg&>(a);
      const auto& y = std::any_cast<const dsm::WriteMsg&>(b);
      return x.origin == y.origin && vec_equal(x.value, y.value);
    }
    case dsm::kTagWriteAck:
    case dsm::kTagStoreAck:
      return std::any_cast<const dsm::AckMsg&>(a).op ==
             std::any_cast<const dsm::AckMsg&>(b).op;
    case dsm::kTagGather:
      return std::any_cast<const dsm::GatherMsg&>(a).op ==
             std::any_cast<const dsm::GatherMsg&>(b).op;
    case dsm::kTagGatherReply:
    case dsm::kTagStore: {
      const auto& x = std::any_cast<const dsm::ViewMsg&>(a);
      const auto& y = std::any_cast<const dsm::ViewMsg&>(b);
      if (x.op != y.op || x.view.size() != y.view.size()) return false;
      for (std::size_t i = 0; i < x.view.size(); ++i) {
        if (x.view[i].has_value() != y.view[i].has_value()) return false;
        if (x.view[i] && !vec_equal(*x.view[i], *y.view[i])) return false;
      }
      return true;
    }
    case core::kTagRound: {
      const auto& x = std::any_cast<const core::RoundMsg&>(a);
      const auto& y = std::any_cast<const core::RoundMsg&>(b);
      if (x.round != y.round) return false;
      const auto& vx = x.h.vertices();
      const auto& vy = y.h.vertices();
      if (vx.size() != vy.size()) return false;
      for (std::size_t i = 0; i < vx.size(); ++i) {
        if (!vec_equal(vx[i], vy[i])) return false;
      }
      return true;
    }
    case core::kTagNaiveInput:
      return vec_equal(std::any_cast<const geo::Vec&>(a),
                       std::any_cast<const geo::Vec&>(b));
    case rbc::kTagSlotInit:
    case rbc::kTagSlotEcho:
    case rbc::kTagSlotReady: {
      const auto& x = std::any_cast<const rbc::SlotMsg&>(a);
      const auto& y = std::any_cast<const rbc::SlotMsg&>(b);
      return x.origin == y.origin && x.slot == y.slot && x.bytes == y.bytes;
    }
    default:
      return false;
  }
}

TEST(PayloadFuzz, EveryTagRoundTrips) {
  for (const auto& [tag, payload] : sample_payloads()) {
    ASSERT_TRUE(wire_supported(tag)) << "tag " << tag;
    const auto bytes = encode_payload(tag, payload);
    ASSERT_TRUE(bytes.has_value()) << "tag " << tag;
    const auto back = decode_payload(tag, *bytes);
    ASSERT_TRUE(back.has_value()) << "tag " << tag;
    EXPECT_TRUE(payload_equal(tag, payload, *back)) << "tag " << tag;
  }
}

TEST(PayloadFuzz, WrongAnyTypeIsRefusedAtEncode) {
  for (const auto& [tag, payload] : sample_payloads()) {
    EXPECT_FALSE(encode_payload(tag, std::any(std::string("nope"))))
        << "tag " << tag;
  }
  EXPECT_FALSE(encode_payload(999, std::any(7)));
  EXPECT_FALSE(wire_supported(999));
  EXPECT_FALSE(wire_supported(409));
  EXPECT_FALSE(wire_supported(413));
}

TEST(PayloadFuzz, EveryTruncationIsRejected) {
  // Every strict prefix of every valid encoding must decode to nullopt —
  // no tag's decoder may accept a short buffer (codec readers demand
  // exhaustion; the slot codec checks its length field against the tail).
  for (const auto& [tag, payload] : sample_payloads()) {
    const auto bytes = encode_payload(tag, payload);
    ASSERT_TRUE(bytes.has_value());
    for (std::size_t cut = 0; cut < bytes->size(); ++cut) {
      const codec::Buffer prefix(bytes->begin(),
                                 bytes->begin() + static_cast<long>(cut));
      EXPECT_FALSE(decode_payload(tag, prefix).has_value())
          << "tag " << tag << " cut " << cut << "/" << bytes->size();
    }
  }
}

TEST(PayloadFuzz, TrailingGarbageIsRejected) {
  for (const auto& [tag, payload] : sample_payloads()) {
    auto bytes = encode_payload(tag, payload);
    ASSERT_TRUE(bytes.has_value());
    bytes->push_back(0x00);
    EXPECT_FALSE(decode_payload(tag, *bytes).has_value()) << "tag " << tag;
  }
}

TEST(PayloadFuzz, RandomCorruptionNeverCrashesOrLies) {
  // Flip random bytes in valid encodings: decode must either reject or
  // produce a payload that re-encodes cleanly (i.e. still structurally
  // valid) — never crash, never read out of bounds (ASan-enforced in CI).
  Rng rng(20260809);
  for (const auto& [tag, payload] : sample_payloads()) {
    const auto bytes = encode_payload(tag, payload);
    ASSERT_TRUE(bytes.has_value());
    if (bytes->empty()) continue;
    for (int trial = 0; trial < 200; ++trial) {
      codec::Buffer mutated = *bytes;
      const std::size_t flips = 1 + rng.uniform_int(0, 2);
      for (std::size_t k = 0; k < flips; ++k) {
        const std::size_t at =
            rng.uniform_int(0, static_cast<int>(mutated.size()) - 1);
        mutated[at] ^= static_cast<std::uint8_t>(
            1u << rng.uniform_int(0, 7));
      }
      const auto got = decode_payload(tag, mutated);
      if (got.has_value()) {
        EXPECT_TRUE(encode_payload(tag, *got).has_value())
            << "tag " << tag;
      }
    }
  }
}

TEST(PayloadFuzz, SlotLengthFieldCannotDriveAllocation) {
  // A Byzantine length field far beyond the actual tail must be rejected
  // before any allocation happens.
  codec::Writer w;
  w.put_u64(1);       // origin
  w.put_u32(0);       // slot
  w.put_u32(1u << 30);  // absurd length, no such tail
  EXPECT_FALSE(decode_payload(rbc::kTagSlotInit, w.take()).has_value());

  // Length exactly at the cap but longer than the tail: also rejected.
  codec::Writer w2;
  w2.put_u64(1);
  w2.put_u32(0);
  w2.put_u32(16);
  codec::Buffer b = w2.take();
  b.push_back(0xAA);  // only 1 byte of the claimed 16
  EXPECT_FALSE(decode_payload(rbc::kTagSlotInit, b).has_value());
}

TEST(PayloadFuzz, RoundPolytopeCapIsTheCodecDefault) {
  // A node decodes round messages with codec::decode_polytope's default
  // cap and no per-instance override, so 4096 vertices is the bound on
  // what a peer can send. Points on a sphere are all vertices: the 4097
  // case is refused by the cap, not shrunk by the hull.
  const auto sphere = [](std::size_t m) {
    std::vector<geo::Vec> pts;
    const double golden = std::numbers::pi * (3.0 - std::sqrt(5.0));
    for (std::size_t i = 0; i < m; ++i) {
      const double z = 1.0 - 2.0 * (static_cast<double>(i) + 0.5) /
                                 static_cast<double>(m);
      const double r = std::sqrt(1.0 - z * z);
      const double phi = golden * static_cast<double>(i);
      pts.push_back(geo::Vec{r * std::cos(phi), r * std::sin(phi), z});
    }
    return geo::Polytope::from_points(pts);
  };
  for (const std::size_t m : {std::size_t{4096}, std::size_t{4097}}) {
    const geo::Polytope p = sphere(m);
    ASSERT_EQ(p.vertices().size(), m);
    const auto bytes = encode_payload(
        core::kTagRound, core::RoundMsg{1, p});
    ASSERT_TRUE(bytes.has_value());
    const auto back = decode_payload(core::kTagRound, *bytes);
    if (m == 4096) {
      ASSERT_TRUE(back.has_value());
      const auto& msg = std::any_cast<const core::RoundMsg&>(*back);
      EXPECT_EQ(msg.h.vertices().size(), m);
    } else {
      EXPECT_FALSE(back.has_value());
    }
  }
}

TEST(PayloadFuzz, SlotMsgNestsThroughRelFrames) {
  // The reliable shim's frame must carry slot messages end to end: RelData
  // -> RelFrame -> bytes -> RelFrame -> RelData.
  net::RelData d;
  d.seq = 9;
  d.cum_ack = 4;
  d.tag = rbc::kTagSlotEcho;
  d.src_epoch = 1;
  d.dst_epoch = 2;
  d.payload = sim::make_payload(rbc::SlotMsg{3, 5, {0x01, 0x02, 0x03}});
  const auto frame = to_rel_frame(d);
  ASSERT_TRUE(frame.has_value());
  const codec::Buffer bytes = codec::encode(*frame);
  const auto back_frame = codec::decode_rel_frame(bytes);
  ASSERT_TRUE(back_frame.has_value());
  const auto back = from_rel_frame(*back_frame);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seq, 9u);
  EXPECT_EQ(back->tag, rbc::kTagSlotEcho);
  const auto& m = std::any_cast<const rbc::SlotMsg&>(*back->payload);
  EXPECT_EQ(m.origin, 3u);
  EXPECT_EQ(m.slot, 5u);
  EXPECT_EQ(m.bytes, (rbc::Bytes{0x01, 0x02, 0x03}));
}

}  // namespace
}  // namespace chc::transport
