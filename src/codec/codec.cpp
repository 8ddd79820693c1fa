#include "codec/codec.hpp"

#include <cmath>
#include <cstring>

namespace chc::codec {

std::optional<std::uint32_t> Reader::read_u32() {
  if (remaining() < 4) return std::nullopt;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(buf_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::optional<std::uint64_t> Reader::read_u64() {
  if (remaining() < 8) return std::nullopt;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(buf_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::optional<double> Reader::read_f64() {
  const auto bits = read_u64();
  if (!bits) return std::nullopt;
  double d;
  std::memcpy(&d, &*bits, sizeof(d));
  return d;
}

std::optional<geo::Vec> Reader::read_vec() {
  const auto dim = read_u32();
  if (!dim) return std::nullopt;
  // Sanity cap: dimensions in this library are tiny.
  if (*dim > 1024 || remaining() < std::size_t{8} * *dim) return std::nullopt;
  std::vector<double> coords;
  coords.reserve(*dim);
  for (std::uint32_t i = 0; i < *dim; ++i) {
    const auto x = read_f64();
    if (!x) return std::nullopt;
    coords.push_back(*x);
  }
  return geo::Vec(std::move(coords));
}

void Writer::put_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::put_f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(bits);
}

void Writer::put_vec(const geo::Vec& v) {
  put_u32(static_cast<std::uint32_t>(v.dim()));
  for (std::size_t i = 0; i < v.dim(); ++i) put_f64(v[i]);
}

Buffer encode(const geo::Vec& v) {
  Writer w;
  w.put_vec(v);
  return w.take();
}

std::optional<geo::Vec> decode_vec(const Buffer& buf) {
  Reader r(buf);
  auto v = r.read_vec();
  if (!v || !r.exhausted()) return std::nullopt;
  return v;
}

Buffer encode(const geo::Polytope& p) {
  Writer w;
  w.put_u32(static_cast<std::uint32_t>(p.ambient_dim()));
  w.put_u32(static_cast<std::uint32_t>(p.is_empty() ? 0 : p.vertices().size()));
  if (!p.is_empty()) {
    for (const geo::Vec& v : p.vertices()) w.put_vec(v);
  }
  return w.take();
}

std::optional<geo::Polytope> decode_polytope(const Buffer& buf,
                                             std::size_t max_vertices) {
  Reader r(buf);
  const auto dim = r.read_u32();
  const auto count = r.read_u32();
  if (!dim || !count || *dim == 0 || *dim > 1024) return std::nullopt;
  if (*count > max_vertices) return std::nullopt;
  if (*count == 0) {
    if (!r.exhausted()) return std::nullopt;
    return geo::Polytope::empty(*dim);
  }
  std::vector<geo::Vec> pts;
  pts.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto v = r.read_vec();
    if (!v || v->dim() != *dim) return std::nullopt;
    // Reject non-finite coordinates outright (Byzantine garbage).
    for (std::size_t c = 0; c < v->dim(); ++c) {
      if (!std::isfinite((*v)[c])) return std::nullopt;
    }
    pts.push_back(std::move(*v));
  }
  if (!r.exhausted()) return std::nullopt;
  return geo::Polytope::from_points(pts);
}

Buffer encode(const dsm::View& view) {
  Writer w;
  w.put_u32(static_cast<std::uint32_t>(view.size()));
  for (const auto& slot : view) {
    w.put_u32(slot.has_value() ? 1 : 0);
    if (slot.has_value()) w.put_vec(*slot);
  }
  return w.take();
}

std::optional<dsm::View> decode_view(const Buffer& buf,
                                     std::size_t max_slots) {
  Reader r(buf);
  const auto count = r.read_u32();
  if (!count || *count > max_slots) return std::nullopt;
  dsm::View view(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    const auto present = r.read_u32();
    if (!present || (*present != 0 && *present != 1)) return std::nullopt;
    if (*present == 1) {
      auto v = r.read_vec();
      if (!v) return std::nullopt;
      view[i] = std::move(*v);
    }
  }
  if (!r.exhausted()) return std::nullopt;
  return view;
}

Buffer encode(const RelFrame& f) {
  Writer w;
  w.put_u64(f.seq);
  w.put_u64(f.cum_ack);
  w.put_u32(static_cast<std::uint32_t>(f.inner_tag));
  w.put_u32(f.src_epoch);
  w.put_u32(f.dst_epoch);
  w.put_u32(static_cast<std::uint32_t>(f.inner.size()));
  Buffer out = w.take();
  out.insert(out.end(), f.inner.begin(), f.inner.end());
  return out;
}

std::optional<RelFrame> decode_rel_frame(const Buffer& buf,
                                         std::size_t max_inner) {
  Reader r(buf);
  const auto seq = r.read_u64();
  const auto cum_ack = r.read_u64();
  const auto tag = r.read_u32();
  const auto src_epoch = r.read_u32();
  const auto dst_epoch = r.read_u32();
  const auto len = r.read_u32();
  if (!seq || !cum_ack || !tag || !src_epoch || !dst_epoch || !len) {
    return std::nullopt;
  }
  if (*len > max_inner || r.remaining() != *len) return std::nullopt;
  RelFrame f;
  f.seq = *seq;
  f.cum_ack = *cum_ack;
  f.inner_tag = static_cast<std::int32_t>(*tag);
  f.src_epoch = *src_epoch;
  f.dst_epoch = *dst_epoch;
  f.inner.assign(buf.end() - *len, buf.end());
  return f;
}

Buffer encode_rel_ack(const RelAckFrame& a) {
  Writer w;
  w.put_u64(a.cum_ack);
  w.put_u32(a.src_epoch);
  w.put_u32(a.dst_epoch);
  return w.take();
}

std::optional<RelAckFrame> decode_rel_ack(const Buffer& buf) {
  Reader r(buf);
  const auto cum = r.read_u64();
  const auto src_epoch = r.read_u32();
  const auto dst_epoch = r.read_u32();
  if (!cum || !src_epoch || !dst_epoch || !r.exhausted()) return std::nullopt;
  RelAckFrame a;
  a.cum_ack = *cum;
  a.src_epoch = *src_epoch;
  a.dst_epoch = *dst_epoch;
  return a;
}

Buffer encode_hello(const HelloFrame& h) {
  Writer w;
  w.put_u64(h.node);
  w.put_u32(h.epoch);
  w.put_u64(h.cluster);
  return w.take();
}

std::optional<HelloFrame> decode_hello(const Buffer& buf) {
  Reader r(buf);
  const auto node = r.read_u64();
  const auto epoch = r.read_u32();
  const auto cluster = r.read_u64();
  if (!node || !epoch || !cluster || !r.exhausted()) return std::nullopt;
  HelloFrame h;
  h.node = *node;
  h.epoch = *epoch;
  h.cluster = *cluster;
  return h;
}

}  // namespace chc::codec
