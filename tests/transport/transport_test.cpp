// Wire framing + payload codec: the byte layer under the cluster runtime.
#include "transport/wire.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <any>

#include "common/rng.hpp"
#include "core/process_cc.hpp"
#include "dsm/store.hpp"
#include "geometry/intern.hpp"
#include "transport/payload.hpp"

namespace chc::transport {
namespace {

WireFrame data_frame(std::uint64_t instance, codec::Buffer payload) {
  WireFrame f;
  f.kind = FrameKind::kData;
  f.instance = instance;
  f.payload = std::move(payload);
  return f;
}

TEST(Wire, RoundTripWholeBuffer) {
  const WireFrame f = data_frame(42, {1, 2, 3, 4, 5});
  const codec::Buffer bytes = frame_bytes(f);
  FrameReader r;
  r.feed(bytes.data(), bytes.size());
  const auto got = r.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->kind, FrameKind::kData);
  EXPECT_EQ(got->instance, 42u);
  EXPECT_EQ(got->payload, f.payload);
  EXPECT_FALSE(r.next().has_value());
  EXPECT_EQ(r.buffered(), 0u);
}

TEST(Wire, ReassemblesOneByteAtATime) {
  // The harshest read fragmentation: every byte arrives alone, across
  // three back-to-back frames.
  std::vector<WireFrame> frames = {
      data_frame(1, {}),
      data_frame(2, codec::Buffer(300, 0xab)),
      {FrameKind::kAck, 3, {9, 9}},
  };
  codec::Buffer stream;
  for (const auto& f : frames) {
    const codec::Buffer b = frame_bytes(f);
    stream.insert(stream.end(), b.begin(), b.end());
  }
  FrameReader r;
  std::vector<WireFrame> got;
  for (const std::uint8_t byte : stream) {
    r.feed(&byte, 1);
    while (auto f = r.next()) got.push_back(std::move(*f));
  }
  ASSERT_EQ(got.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(got[i].kind, frames[i].kind);
    EXPECT_EQ(got[i].instance, frames[i].instance);
    EXPECT_EQ(got[i].payload, frames[i].payload);
  }
  EXPECT_FALSE(r.corrupt());
}

TEST(Wire, AbsurdLengthMarksStreamCorrupt) {
  // Length prefix claiming 2 GiB: must flag corruption, not allocate.
  // (A full [len][crc] prefix is needed before the reader inspects it.)
  const codec::Buffer evil = {0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0};
  FrameReader r;
  r.feed(evil.data(), evil.size());
  EXPECT_FALSE(r.next().has_value());
  EXPECT_TRUE(r.corrupt());
}

TEST(Wire, UnknownKindMarksStreamCorrupt) {
  WireFrame f = data_frame(1, {});
  codec::Buffer bytes = frame_bytes(f);
  bytes[8] = 0x77;  // kind byte (after [u32 len][u32 crc])
  FrameReader r;
  r.feed(bytes.data(), bytes.size());
  EXPECT_FALSE(r.next().has_value());
  EXPECT_TRUE(r.corrupt());
}

TEST(Wire, ChecksumCatchesAnySingleFlippedBit) {
  const WireFrame f = data_frame(77, {10, 20, 30, 40, 50, 60});
  const codec::Buffer clean = frame_bytes(f);
  // Flip every bit position past the length prefix in turn; each must be
  // detected (the length prefix itself is covered by the existing range
  // check plus the checksum over the mis-framed body).
  for (std::size_t byte = 4; byte < clean.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      codec::Buffer bytes = clean;
      bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
      FrameReader r;
      r.feed(bytes.data(), bytes.size());
      EXPECT_FALSE(r.next().has_value())
          << "byte " << byte << " bit " << bit;
      EXPECT_TRUE(r.corrupt()) << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(Wire, SocketpairCarriesFramesAcrossPartialReads) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::vector<WireFrame> frames;
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    codec::Buffer payload(static_cast<std::size_t>(rng.uniform(0, 2000)));
    for (auto& b : payload) {
      b = static_cast<std::uint8_t>(rng.uniform(0, 256));
    }
    frames.push_back(data_frame(static_cast<std::uint64_t>(i), payload));
  }
  codec::Buffer stream;
  for (const auto& f : frames) {
    const codec::Buffer b = frame_bytes(f);
    stream.insert(stream.end(), b.begin(), b.end());
  }
  // Writer side dribbles random-sized chunks; reader drains after each.
  FrameReader r;
  std::vector<WireFrame> got;
  std::size_t at = 0;
  std::uint8_t buf[4096];
  while (at < stream.size()) {
    const std::size_t chunk = std::min<std::size_t>(
        1 + static_cast<std::size_t>(rng.uniform(0, 700)),
        stream.size() - at);
    ASSERT_EQ(::send(fds[0], stream.data() + at, chunk, 0),
              static_cast<ssize_t>(chunk));
    at += chunk;
    for (;;) {
      const ssize_t n = ::recv(fds[1], buf, sizeof(buf), MSG_DONTWAIT);
      if (n <= 0) break;
      r.feed(buf, static_cast<std::size_t>(n));
    }
    while (auto f = r.next()) got.push_back(std::move(*f));
  }
  // Drain the tail.
  for (;;) {
    const ssize_t n = ::recv(fds[1], buf, sizeof(buf), MSG_DONTWAIT);
    if (n <= 0) break;
    r.feed(buf, static_cast<std::size_t>(n));
  }
  while (auto f = r.next()) got.push_back(std::move(*f));
  ::close(fds[0]);
  ::close(fds[1]);

  ASSERT_EQ(got.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(got[i].instance, frames[i].instance);
    EXPECT_EQ(got[i].payload, frames[i].payload) << "frame " << i;
  }
  EXPECT_FALSE(r.corrupt());
}

TEST(Payload, DsmTagsRoundTrip) {
  const dsm::WriteMsg w{3, geo::Vec{0.25, -1.5}};
  auto bytes = encode_payload(dsm::kTagWrite, std::any(w));
  ASSERT_TRUE(bytes.has_value());
  auto back = decode_payload(dsm::kTagWrite, *bytes);
  ASSERT_TRUE(back.has_value());
  const auto& wb = std::any_cast<const dsm::WriteMsg&>(*back);
  EXPECT_EQ(wb.origin, 3u);
  EXPECT_EQ(wb.value, w.value);

  for (const int tag : {dsm::kTagWriteAck, dsm::kTagStoreAck}) {
    auto ab = encode_payload(tag, std::any(dsm::AckMsg{77}));
    ASSERT_TRUE(ab.has_value());
    auto aback = decode_payload(tag, *ab);
    ASSERT_TRUE(aback.has_value());
    EXPECT_EQ(std::any_cast<const dsm::AckMsg&>(*aback).op, 77u);
  }

  auto gb = encode_payload(dsm::kTagGather, std::any(dsm::GatherMsg{5}));
  ASSERT_TRUE(gb.has_value());
  EXPECT_EQ(std::any_cast<const dsm::GatherMsg&>(
                *decode_payload(dsm::kTagGather, *gb))
                .op,
            5u);

  dsm::View view(4);
  view[1] = geo::Vec{1.0, 2.0};
  view[3] = geo::Vec{-0.5, 0.5};
  for (const int tag : {dsm::kTagGatherReply, dsm::kTagStore}) {
    auto vb = encode_payload(tag, std::any(dsm::ViewMsg{9, view}));
    ASSERT_TRUE(vb.has_value());
    const auto decoded = decode_payload(tag, *vb);
    ASSERT_TRUE(decoded.has_value());
    const auto& vm = std::any_cast<const dsm::ViewMsg&>(*decoded);
    EXPECT_EQ(vm.op, 9u);
    ASSERT_EQ(vm.view.size(), view.size());
    EXPECT_FALSE(vm.view[0].has_value());
    EXPECT_EQ(*vm.view[1], *view[1]);
    EXPECT_EQ(*vm.view[3], *view[3]);
  }
}

TEST(Payload, RoundMsgRoundTripsThroughIntern) {
  const auto h = geo::intern(geo::Polytope::from_points(
      {geo::Vec{0.0, 0.0}, geo::Vec{1.0, 0.0}, geo::Vec{0.0, 1.0}}));
  auto bytes = encode_payload(core::kTagRound, std::any(core::RoundMsg{4, h}));
  ASSERT_TRUE(bytes.has_value());
  auto back = decode_payload(core::kTagRound, *bytes);
  ASSERT_TRUE(back.has_value());
  const auto& rm = std::any_cast<const core::RoundMsg&>(*back);
  EXPECT_EQ(rm.round, 4u);
  ASSERT_NE(rm.h, nullptr);
  // Interning makes value equality pointer equality.
  EXPECT_EQ(rm.h.get(), h.get());
}

TEST(Payload, NaiveInputAndUnsupportedTags) {
  auto vb =
      encode_payload(core::kTagNaiveInput, std::any(geo::Vec{3.0, -4.0}));
  ASSERT_TRUE(vb.has_value());
  EXPECT_EQ(std::any_cast<const geo::Vec&>(
                *decode_payload(core::kTagNaiveInput, *vb)),
            (geo::Vec{3.0, -4.0}));

  EXPECT_FALSE(wire_supported(999));
  EXPECT_FALSE(encode_payload(999, std::any(1)).has_value());
  EXPECT_FALSE(decode_payload(999, {}).has_value());
  // Right tag, wrong std::any type.
  EXPECT_FALSE(encode_payload(dsm::kTagWrite, std::any(1)).has_value());
}

TEST(Payload, RelFrameConversionRoundTrips) {
  net::RelData d;
  d.seq = 11;
  d.cum_ack = 7;
  d.tag = core::kTagRound;
  d.payload = sim::make_payload(core::RoundMsg{
      2, geo::intern(geo::Polytope::from_points(
             {geo::Vec{0.0, 0.0}, geo::Vec{2.0, 0.0}, geo::Vec{0.0, 2.0}}))});
  d.src_epoch = 3;
  d.dst_epoch = 1;
  const auto frame = to_rel_frame(d);
  ASSERT_TRUE(frame.has_value());
  // Through bytes, as the socket path does.
  const codec::Buffer bytes = codec::encode(*frame);
  const auto parsed = codec::decode_rel_frame(bytes);
  ASSERT_TRUE(parsed.has_value());
  const auto back = from_rel_frame(*parsed);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seq, d.seq);
  EXPECT_EQ(back->cum_ack, d.cum_ack);
  EXPECT_EQ(back->tag, d.tag);
  EXPECT_EQ(back->src_epoch, d.src_epoch);
  EXPECT_EQ(back->dst_epoch, d.dst_epoch);
  const auto& rm = std::any_cast<const core::RoundMsg&>(*back->payload);
  EXPECT_EQ(rm.round, 2u);

  const net::RelAck a{19, 4, 2};
  const auto ack_back =
      from_rel_ack(*codec::decode_rel_ack(codec::encode_rel_ack(to_rel_ack(a))));
  EXPECT_EQ(ack_back.cum_ack, a.cum_ack);
  EXPECT_EQ(ack_back.src_epoch, a.src_epoch);
  EXPECT_EQ(ack_back.dst_epoch, a.dst_epoch);
}

TEST(Payload, HelloFrameRoundTrips) {
  const codec::HelloFrame h{4, 2, 5};
  const auto back = codec::decode_hello(codec::encode_hello(h));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->node, 4u);
  EXPECT_EQ(back->epoch, 2u);
  EXPECT_EQ(back->cluster, 5u);
  EXPECT_FALSE(codec::decode_hello({1, 2, 3}).has_value());
}

}  // namespace
}  // namespace chc::transport
