// Wire-format tests: round trips, strict bounds checking, and garbage
// rejection (decoders sit on the Byzantine path).
#include "codec/codec.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.hpp"

namespace chc::codec {
namespace {

TEST(Codec, VecRoundTrip) {
  const geo::Vec v{1.5, -2.25, 1e-300, 1e300, 0.0};
  const auto buf = encode(v);
  const auto back = decode_vec(buf);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(approx_eq(*back, v, 0.0));  // bit-exact
}

TEST(Codec, VecRandomRoundTrips) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const auto d = static_cast<std::size_t>(rng.uniform_int(1, 8));
    geo::Vec v(d);
    for (std::size_t c = 0; c < d; ++c) v[c] = rng.normal() * 1e3;
    const auto back = decode_vec(encode(v));
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(approx_eq(*back, v, 0.0));
  }
}

TEST(Codec, PolytopeRoundTrip) {
  const auto p = geo::Polytope::from_points(
      {geo::Vec{0, 0}, geo::Vec{1, 0}, geo::Vec{1, 1}, geo::Vec{0, 1}});
  const auto buf = encode(p);
  const auto back = decode_polytope(buf);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(geo::approx_equal(*back, p, 1e-12));
}

TEST(Codec, EmptyAndDegeneratePolytopes) {
  const auto empty = geo::Polytope::empty(3);
  const auto back = decode_polytope(encode(empty));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->is_empty());
  EXPECT_EQ(back->ambient_dim(), 3u);

  const auto point = geo::Polytope::from_points({geo::Vec{1, 2, 3}});
  const auto back2 = decode_polytope(encode(point));
  ASSERT_TRUE(back2.has_value());
  EXPECT_TRUE(geo::approx_equal(*back2, point, 1e-12));
}

TEST(Codec, ViewRoundTrip) {
  dsm::View view(4);
  view[1] = geo::Vec{3.5, -1.0};
  view[3] = geo::Vec{0.0, 0.0};
  const auto buf = encode(view);
  const auto back = decode_view(buf);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), 4u);
  EXPECT_FALSE((*back)[0].has_value());
  EXPECT_TRUE((*back)[1].has_value());
  EXPECT_TRUE(approx_eq(*(*back)[1], geo::Vec{3.5, -1.0}, 0.0));
  EXPECT_FALSE((*back)[2].has_value());
  EXPECT_TRUE((*back)[3].has_value());
}

TEST(Codec, TruncatedBuffersRejected) {
  const geo::Vec v{1.0, 2.0, 3.0};
  auto buf = encode(v);
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    Buffer trunc(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode_vec(trunc).has_value()) << "cut=" << cut;
  }
}

TEST(Codec, TrailingGarbageRejected) {
  auto buf = encode(geo::Vec{1.0});
  buf.push_back(0x42);
  EXPECT_FALSE(decode_vec(buf).has_value());
}

TEST(Codec, AbsurdClaimsRejected) {
  // Vec claiming 2^31 coordinates.
  Writer w;
  w.put_u32(0x7FFFFFFF);
  EXPECT_FALSE(decode_vec(w.take()).has_value());

  // Polytope claiming more vertices than the cap.
  Writer w2;
  w2.put_u32(2);
  w2.put_u32(100000);
  EXPECT_FALSE(decode_polytope(w2.take(), 4096).has_value());

  // View with an invalid presence flag.
  Writer w3;
  w3.put_u32(1);
  w3.put_u32(7);
  EXPECT_FALSE(decode_view(w3.take()).has_value());
}

TEST(Codec, NonFinitePolytopeCoordinatesRejected) {
  Writer w;
  w.put_u32(2);  // dim
  w.put_u32(1);  // one vertex
  w.put_u32(2);  // vec dim
  w.put_f64(std::numeric_limits<double>::quiet_NaN());
  w.put_f64(1.0);
  EXPECT_FALSE(decode_polytope(w.take()).has_value());
}

TEST(Codec, RandomGarbageNeverCrashes) {
  Rng rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    Buffer buf(static_cast<std::size_t>(rng.uniform_int(0, 64)));
    for (auto& b : buf) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    // Must not crash or throw; may or may not decode.
    (void)decode_vec(buf);
    (void)decode_view(buf);
    (void)decode_polytope(buf);
  }
  SUCCEED();
}

TEST(Codec, RelFrameRoundTrip) {
  RelFrame f;
  f.seq = 0xDEADBEEFCAFE0001ULL;
  f.cum_ack = 42;
  f.inner_tag = 203;
  f.src_epoch = 2;
  f.dst_epoch = 5;
  f.inner = encode(geo::Vec{1.0, -2.5});
  const auto buf = encode(f);
  const auto back = decode_rel_frame(buf);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seq, f.seq);
  EXPECT_EQ(back->cum_ack, f.cum_ack);
  EXPECT_EQ(back->inner_tag, f.inner_tag);
  EXPECT_EQ(back->src_epoch, 2u);
  EXPECT_EQ(back->dst_epoch, 5u);
  EXPECT_EQ(back->inner, f.inner);
  // Nested payload decodes in turn.
  const auto inner = decode_vec(back->inner);
  ASSERT_TRUE(inner.has_value());
  EXPECT_TRUE(approx_eq(*inner, geo::Vec{1.0, -2.5}, 0.0));
}

TEST(Codec, RelFrameEmptyPayloadRoundTrip) {
  RelFrame f;
  f.seq = 7;
  const auto back = decode_rel_frame(encode(f));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seq, 7u);
  EXPECT_TRUE(back->inner.empty());
}

TEST(Codec, RelFrameMalformedRejected) {
  RelFrame f;
  f.seq = 9;
  f.inner = {1, 2, 3, 4};
  auto buf = encode(f);

  // Truncated anywhere in the frame.
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    Buffer trunc(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode_rel_frame(trunc).has_value()) << "cut=" << cut;
  }
  // Trailing garbage (claimed length below actual remainder).
  buf.push_back(0xFF);
  EXPECT_FALSE(decode_rel_frame(buf).has_value());
  // Claimed inner length beyond the cap.
  Writer w;
  w.put_u64(0);
  w.put_u64(0);
  w.put_u32(1);       // tag
  w.put_u32(0);       // src_epoch
  w.put_u32(0);       // dst_epoch
  w.put_u32(1u << 30);
  EXPECT_FALSE(decode_rel_frame(w.take()).has_value());
}

TEST(Codec, RelAckRoundTripAndRejection) {
  RelAckFrame a;
  a.cum_ack = 0x0123456789ABCDEFULL;
  a.src_epoch = 3;
  a.dst_epoch = 1;
  const auto buf = encode_rel_ack(a);
  EXPECT_EQ(buf.size(), 16u);  // u64 cum_ack + two u32 epochs
  const auto back = decode_rel_ack(buf);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->cum_ack, a.cum_ack);
  EXPECT_EQ(back->src_epoch, 3u);
  EXPECT_EQ(back->dst_epoch, 1u);

  EXPECT_FALSE(decode_rel_ack(Buffer{1, 2, 3}).has_value());  // truncated
  Buffer extra = buf;
  extra.push_back(0);
  EXPECT_FALSE(decode_rel_ack(extra).has_value());  // trailing garbage
}

TEST(Codec, DecodedPolytopeIsCanonicalized) {
  // Duplicate + interior points on the wire: the decoder re-canonicalizes.
  Writer w;
  w.put_u32(2);
  w.put_u32(5);
  for (const auto& v :
       {geo::Vec{0, 0}, geo::Vec{2, 0}, geo::Vec{0, 2}, geo::Vec{0, 0},
        geo::Vec{0.5, 0.5}}) {
    w.put_vec(v);
  }
  const auto p = decode_polytope(w.take());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->vertices().size(), 3u);
}

}  // namespace
}  // namespace chc::codec
