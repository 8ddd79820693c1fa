#include "geometry/hull2d.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace chc::geo {
namespace {

void require_2d(const std::vector<Vec>& pts) {
  for (const Vec& p : pts) CHC_CHECK(p.dim() == 2, "expected 2-D points");
}

/// Rotates a CCW polygon so it starts at the lexicographically-lowest
/// (y, then x) vertex; required by the edge-merge Minkowski sum.
std::vector<Vec> rotate_to_lowest(std::vector<Vec> poly) {
  std::size_t lo = 0;
  for (std::size_t i = 1; i < poly.size(); ++i) {
    if (poly[i][1] < poly[lo][1] ||
        (poly[i][1] == poly[lo][1] && poly[i][0] < poly[lo][0])) {
      lo = i;
    }
  }
  std::rotate(poly.begin(), poly.begin() + static_cast<std::ptrdiff_t>(lo),
              poly.end());
  return poly;
}

}  // namespace

std::vector<Vec> hull2d(std::vector<Vec> points, double tol) {
  require_2d(points);
  if (points.empty()) return {};

  std::sort(points.begin(), points.end(), [](const Vec& a, const Vec& b) {
    return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1]);
  });
  points.erase(std::unique(points.begin(), points.end(),
                           [&](const Vec& a, const Vec& b) {
                             return approx_eq(a, b, tol);
                           }),
               points.end());
  if (points.size() <= 2) return points;

  double scale = 1.0;
  for (const Vec& p : points) scale = std::max(scale, p.max_abs());
  // Cross products scale quadratically with coordinates.
  const double cross_tol = tol * scale * scale;

  std::vector<Vec> hull(2 * points.size());
  std::size_t k = 0;
  // Lower chain.
  for (const Vec& p : points) {
    while (k >= 2 && cross2(hull[k - 2], hull[k - 1], p) <= cross_tol) --k;
    hull[k++] = p;
  }
  // Upper chain.
  const std::size_t lower_size = k + 1;
  for (auto it = points.rbegin() + 1; it != points.rend(); ++it) {
    while (k >= lower_size && cross2(hull[k - 2], hull[k - 1], *it) <= cross_tol) --k;
    hull[k++] = *it;
  }
  hull.resize(k - 1);  // last point equals the first
  if (hull.size() == 2 && approx_eq(hull[0], hull[1], tol)) hull.resize(1);
  return hull;
}

double polygon_area(const std::vector<Vec>& poly) {
  require_2d(poly);
  if (poly.size() < 3) return 0.0;
  double twice = 0.0;
  for (std::size_t i = 0; i < poly.size(); ++i) {
    const Vec& a = poly[i];
    const Vec& b = poly[(i + 1) % poly.size()];
    twice += a[0] * b[1] - b[0] * a[1];
  }
  return twice / 2.0;
}

bool polygon_contains(const std::vector<Vec>& poly, const Vec& p, double tol) {
  require_2d(poly);
  CHC_CHECK(p.dim() == 2, "expected a 2-D point");
  if (poly.empty()) return false;
  if (poly.size() == 1) return poly[0].dist(p) <= tol;
  if (poly.size() == 2) return point_segment_distance(p, poly[0], poly[1]) <= tol;
  for (std::size_t i = 0; i < poly.size(); ++i) {
    const Vec& a = poly[i];
    const Vec& b = poly[(i + 1) % poly.size()];
    // Normalize the cross product by the edge length to get a distance-like
    // quantity comparable to tol.
    const double len = a.dist(b);
    if (len < 1e-300) continue;
    if (cross2(a, b, p) < -tol * len) return false;
  }
  return true;
}

std::vector<Vec> clip_halfplane(const std::vector<Vec>& poly, const Vec& a,
                                double b, double tol) {
  require_2d(poly);
  CHC_CHECK(a.dim() == 2, "halfplane normal must be 2-D");
  if (poly.empty()) return {};
  const double anorm = a.norm();
  if (anorm < 1e-300) return (b >= -tol) ? poly : std::vector<Vec>{};
  const double dist_tol = tol * std::max(1.0, anorm);

  auto inside = [&](const Vec& p) { return a.dot(p) <= b + dist_tol; };
  auto intersect = [&](const Vec& s, const Vec& e) {
    const double denom = a.dot(e - s);
    const double t = (b - a.dot(s)) / denom;
    return s + (e - s) * t;
  };

  if (poly.size() == 1) return inside(poly[0]) ? poly : std::vector<Vec>{};
  if (poly.size() == 2) {
    const bool in0 = inside(poly[0]), in1 = inside(poly[1]);
    if (in0 && in1) return poly;
    if (!in0 && !in1) return {};
    const Vec cut = intersect(poly[0], poly[1]);
    return in0 ? std::vector<Vec>{poly[0], cut} : std::vector<Vec>{cut, poly[1]};
  }

  const std::size_t n = poly.size();
  std::vector<Vec> out;
  out.reserve(n + 1);
  bool si = inside(poly[0]);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t next = (i + 1) % n;
    const bool ei = inside(poly[next]);
    if (si) out.push_back(poly[i]);
    if (si != ei) out.push_back(intersect(poly[i], poly[next]));
    si = ei;
  }
  // Canonicalize: clipping can introduce duplicates/collinear vertices.
  return hull2d(std::move(out));
}

std::vector<Vec> minkowski_sum2d(const std::vector<Vec>& p,
                                 const std::vector<Vec>& q) {
  require_2d(p);
  require_2d(q);
  CHC_CHECK(!p.empty() && !q.empty(), "Minkowski sum of an empty polygon");

  // Degenerate operands: brute-force pairwise sums then hull (tiny inputs).
  if (p.size() < 3 || q.size() < 3) {
    std::vector<Vec> sums;
    sums.reserve(p.size() * q.size());
    for (const Vec& u : p) {
      for (const Vec& v : q) sums.push_back(u + v);
    }
    return hull2d(std::move(sums));
  }

  const std::vector<Vec> P = rotate_to_lowest(p);
  const std::vector<Vec> Q = rotate_to_lowest(q);
  const std::size_t n = P.size(), m = Q.size();
  std::vector<Vec> out;
  out.reserve(n + m);
  std::size_t i = 0, j = 0;
  while (i < n || j < m) {
    out.push_back(P[i % n] + Q[j % m]);
    const Vec ep = P[(i + 1) % n] - P[i % n];
    const Vec eq = Q[(j + 1) % m] - Q[j % m];
    const double cr = ep[0] * eq[1] - ep[1] * eq[0];
    if (cr > 0.0 && i < n) {
      ++i;
    } else if (cr < 0.0 && j < m) {
      ++j;
    } else {  // parallel edges (or one chain exhausted): advance both/other
      if (i < n) ++i;
      if (j < m) ++j;
    }
  }
  return hull2d(std::move(out));
}

double point_segment_distance(const Vec& p, const Vec& a, const Vec& b) {
  const Vec ab = b - a;
  const double len2 = ab.norm2();
  if (len2 < 1e-300) return p.dist(a);
  double t = (p - a).dot(ab) / len2;
  t = std::clamp(t, 0.0, 1.0);
  return p.dist(a + ab * t);
}

double point_polygon_distance(const std::vector<Vec>& poly, const Vec& p) {
  return polygon_nearest_point(poly, p).dist(p);
}

Vec polygon_nearest_point(const std::vector<Vec>& poly, const Vec& p) {
  require_2d(poly);
  CHC_CHECK(!poly.empty(), "nearest point of an empty polygon");
  if (poly.size() == 1) return poly[0];
  if (poly.size() >= 3 && polygon_contains(poly, p, 0.0)) return p;

  Vec best = poly[0];
  double best_d = p.dist(best);
  const std::size_t edges = (poly.size() == 2) ? 1 : poly.size();
  for (std::size_t i = 0; i < edges; ++i) {
    const Vec& a = poly[i];
    const Vec& b = poly[(i + 1) % poly.size()];
    const Vec ab = b - a;
    const double len2 = ab.norm2();
    Vec cand = a;
    if (len2 >= 1e-300) {
      const double t = std::clamp((p - a).dot(ab) / len2, 0.0, 1.0);
      cand = a + ab * t;
    }
    const double d = p.dist(cand);
    if (d < best_d) {
      best_d = d;
      best = cand;
    }
  }
  return best;
}

}  // namespace chc::geo
