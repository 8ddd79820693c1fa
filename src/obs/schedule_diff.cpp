#include "obs/schedule_diff.hpp"

#include <algorithm>

#include "geometry/polytope.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace chc::obs {
namespace {

/// Structural equality; numbers compare by their raw token, so two values
/// are equal exactly when they would print identically.
bool same_json(const JsonValue& a, const JsonValue& b) {
  if (a.type != b.type) return false;
  switch (a.type) {
    case JsonValue::Type::kNull:
      return true;
    case JsonValue::Type::kBool:
      return a.boolean == b.boolean;
    case JsonValue::Type::kNumber:
    case JsonValue::Type::kString:
      return a.text == b.text;
    case JsonValue::Type::kArray:
      return std::equal(a.items.begin(), a.items.end(), b.items.begin(),
                        b.items.end(), same_json);
    case JsonValue::Type::kObject:
      return std::equal(a.fields.begin(), a.fields.end(), b.fields.begin(),
                        b.fields.end(), [](const auto& x, const auto& y) {
                          return x.first == y.first &&
                                 same_json(x.second, y.second);
                        });
  }
  return false;
}

/// The record's fields other than `verts`, in order.
std::vector<const std::pair<std::string, JsonValue>*> without_verts(
    const JsonValue& obj) {
  std::vector<const std::pair<std::string, JsonValue>*> out;
  for (const auto& f : obj.fields) {
    if (f.first != "verts") out.push_back(&f);
  }
  return out;
}

/// A non-empty list of d-dimensional points.
bool parse_verts(const JsonValue& arr, std::size_t d,
                 std::vector<geo::Vec>& out) {
  if (!arr.is_array() || arr.items.empty()) return false;
  for (const JsonValue& v : arr.items) {
    if (!v.is_array() || v.items.size() != d) return false;
    geo::Vec x(v.items.size());
    for (std::size_t c = 0; c < v.items.size(); ++c) {
      if (v.items[c].type != JsonValue::Type::kNumber) return false;
      x[c] = v.items[c].number;
    }
    out.push_back(std::move(x));
  }
  return true;
}

}  // namespace

ScheduleDiff compare_schedules(const std::vector<std::string>& before,
                               const std::vector<std::string>& after) {
  ScheduleDiff d;
  const auto differ = [&d](std::size_t line, std::string why) {
    d.first_diff_line = line;
    d.detail = std::move(why);
    return d;
  };
  if (before.size() != after.size()) {
    return differ(std::min(before.size(), after.size()) + 1,
                  "line count " + std::to_string(before.size()) + " before, " +
                      std::to_string(after.size()) + " after");
  }
  TraceHeader header;
  if (before.empty() || !parse_header(before[0], header)) {
    return differ(1, "first line is not a trace header");
  }

  for (std::size_t i = 0; i < before.size(); ++i) {
    ++d.lines;
    if (before[i] == after[i]) continue;
    JsonValue a, b;
    if (!json_parse(before[i], a) || !json_parse(after[i], b) ||
        !a.is_object() || !b.is_object()) {
      return differ(i + 1, "unparseable record");
    }
    const auto fa = without_verts(a);
    const auto fb = without_verts(b);
    const bool rest_same = std::equal(
        fa.begin(), fa.end(), fb.begin(), fb.end(),
        [](const auto* x, const auto* y) {
          return x->first == y->first && same_json(x->second, y->second);
        });
    if (!rest_same) return differ(i + 1, "fields other than verts differ");

    const JsonValue* va = a.find("verts");
    const JsonValue* vb = b.find("verts");
    std::vector<geo::Vec> pa, pb;
    if (va == nullptr || vb == nullptr || !parse_verts(*va, header.d, pa) ||
        !parse_verts(*vb, header.d, pb)) {
      return differ(i + 1, "verts missing or malformed on one side");
    }
    ++d.moved;
    const double h =
        geo::hausdorff(geo::Polytope::from_points(pa, header.rel_tol),
                       geo::Polytope::from_points(pb, header.rel_tol));
    d.max_hausdorff = std::max(d.max_hausdorff, h);
    const JsonValue* kind = a.find("kind");
    if (kind != nullptr && kind->text == "decide") {
      d.max_decide_hausdorff = std::max(d.max_decide_hausdorff, h);
    }
  }
  d.same = true;
  return d;
}

}  // namespace chc::obs
