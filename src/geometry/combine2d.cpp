#include "geometry/combine2d.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/check.hpp"
#include "geometry/hull2d.hpp"

namespace chc::geo {
namespace {

/// One directed boundary edge of a scaled operand polygon.
struct CombEdge {
  double ex = 0.0, ey = 0.0;
};

/// The angle-sorted edge fan of one scaled operand.
struct OperandEdges {
  double start_x = 0.0;  ///< scaled bottom-most (min y, then min x) vertex
  double start_y = 0.0;
  std::vector<CombEdge> edges;  ///< sorted by pseudo-angle (strictly)
};

/// 0 when the edge direction lies in the half-open upper halfplane
/// (angle ∈ [0, π)), 1 for the lower ([π, 2π)).
int angle_half(double ex, double ey) {
  if (ey > 0.0) return 0;
  if (ey < 0.0) return 1;
  return ex > 0.0 ? 0 : 1;
}

/// Value-based total preorder on edge vectors: pseudo-angle half, then
/// cross product within a half-turn, then the raw IEEE bits of (ex, ey).
/// Two edges that compare equal are bitwise-identical vectors, so every
/// sorted arrangement of a given multiset yields the same boundary-walk
/// bits. (Operand rank deliberately does not participate: the merged
/// sequence must not depend on the order the fans are passed in.)
bool edge_less(const CombEdge& a, const CombEdge& b) {
  const int ha = angle_half(a.ex, a.ey), hb = angle_half(b.ex, b.ey);
  if (ha != hb) return ha < hb;
  const double cr = a.ex * b.ey - a.ey * b.ex;
  if (cr != 0.0) return cr > 0.0;
  const std::uint64_t ax = std::bit_cast<std::uint64_t>(a.ex);
  const std::uint64_t bx = std::bit_cast<std::uint64_t>(b.ex);
  if (ax != bx) return ax < bx;
  return std::bit_cast<std::uint64_t>(a.ey) <
         std::bit_cast<std::uint64_t>(b.ey);
}

/// CCW copy of a 2-D convex polygon's vertices (reverses if needed).
std::vector<Vec> ccw2(const std::vector<Vec>& poly) {
  if (poly.size() < 3) return poly;
  if (polygon_area(poly) < 0.0) {
    return std::vector<Vec>(poly.rbegin(), poly.rend());
  }
  return poly;
}

/// The edge fan of `p` scaled by `weight` (> 0).
OperandEdges build_operand_edges(const Polytope& p, double weight) {
  OperandEdges fan;
  std::vector<Vec> v = ccw2(p.vertices());
  for (Vec& q : v) q *= weight;
  std::size_t lo = 0;
  for (std::size_t j = 1; j < v.size(); ++j) {
    if (v[j][1] < v[lo][1] || (v[j][1] == v[lo][1] && v[j][0] < v[lo][0])) {
      lo = j;
    }
  }
  fan.start_x = v[lo][0];
  fan.start_y = v[lo][1];
  const std::size_t m = v.size();
  fan.edges.reserve(m);
  for (std::size_t j = 0; j < m && m >= 2; ++j) {
    const Vec& a = v[(lo + j) % m];
    const Vec& b = v[(lo + j + 1) % m];
    const CombEdge e{b[0] - a[0], b[1] - a[1]};
    // Zero edges cannot come from canonical polytopes, but guard anyway:
    // they have no pseudo-angle and would break the merge's ordering.
    if (e.ex != 0.0 || e.ey != 0.0) fan.edges.push_back(e);
  }
  // A canonical CCW polygon's edges are already angle-sorted from the
  // bottom-most vertex; verify instead of sorting, and fall back for inputs
  // that violate it (non-canonical callers).
  if (!std::is_sorted(fan.edges.begin(), fan.edges.end(), edge_less)) {
    std::sort(fan.edges.begin(), fan.edges.end(), edge_less);
  }
  return fan;
}

}  // namespace

Polytope linear_combination_kway2d(const std::vector<Polytope>& polys,
                                   const std::vector<double>& weights,
                                   double rel_tol) {
  std::vector<OperandEdges> fans;
  fans.reserve(polys.size());
  for (std::size_t i = 0; i < polys.size(); ++i) {
    if (weights[i] == 0.0) continue;
    fans.push_back(build_operand_edges(polys[i], weights[i]));
  }
  CHC_CHECK(!fans.empty(), "L with every weight zero");
  double start_x = 0.0, start_y = 0.0;
  std::size_t total = 0;
  for (const OperandEdges& f : fans) {
    start_x += f.start_x;
    start_y += f.start_y;
    total += f.edges.size();
  }
  if (total == 0) {
    return Polytope::from_points({Vec{start_x, start_y}}, rel_tol);
  }

  // K-way merge of the sorted fans, walked as it goes: a linear scan over
  // the k heads per output edge (k is the round size — small — so this
  // beats re-sorting all E edges every round). Ties pick the lowest-index
  // fan; tied edges are bitwise-identical, so the pick never changes the
  // walk's bits. The walk closes back at the start because each fan's
  // edges sum to zero, so the last (maximal) edge is not walked rather
  // than emitting a near-duplicate of the start vertex. The walk is
  // scratch until canonicalization picks the surviving vertices.
  std::vector<double> xs(total), ys(total);
  std::vector<std::size_t> head(fans.size(), 0);
  xs[0] = start_x;
  ys[0] = start_y;
  for (std::size_t step = 0; step + 1 < total; ++step) {
    std::size_t pick = fans.size();
    for (std::size_t f = 0; f < fans.size(); ++f) {
      if (head[f] >= fans[f].edges.size()) continue;
      if (pick == fans.size() ||
          edge_less(fans[f].edges[head[f]], fans[pick].edges[head[pick]])) {
        pick = f;
      }
    }
    CHC_INTERNAL(pick < fans.size(), "merge exhausted fans early");
    const CombEdge& e = fans[pick].edges[head[pick]++];
    xs[step + 1] = xs[step] + e.ex;
    ys[step + 1] = ys[step] + e.ey;
  }
  return Polytope::from_convex_walk_xy(xs.data(), ys.data(), total, rel_tol);
}

}  // namespace chc::geo
