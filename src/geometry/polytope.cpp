#include "geometry/polytope.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ostream>

#include "common/check.hpp"
#include "geometry/distance.hpp"
#include "geometry/hull2d.hpp"
#include "geometry/quickhull.hpp"

namespace chc::geo {
namespace {

/// Determinant of a k x k matrix given as column vectors (destructive
/// Gaussian elimination with partial pivoting).
double det(std::vector<Vec> cols) {
  const std::size_t k = cols.size();
  double result = 1.0;
  for (std::size_t c = 0; c < k; ++c) {
    std::size_t piv = c;
    for (std::size_t r = c + 1; r < k; ++r) {
      if (std::fabs(cols[c][r]) > std::fabs(cols[c][piv])) piv = r;
    }
    if (std::fabs(cols[c][piv]) < 1e-300) return 0.0;
    if (piv != c) {
      for (std::size_t cc = 0; cc < k; ++cc) std::swap(cols[cc][c], cols[cc][piv]);
      result = -result;
    }
    result *= cols[c][c];
    for (std::size_t r = c + 1; r < k; ++r) {
      const double factor = cols[c][r] / cols[c][c];
      for (std::size_t cc = c; cc < k; ++cc) cols[cc][r] -= factor * cols[cc][c];
    }
  }
  return result;
}

double factorial(std::size_t k) {
  double f = 1.0;
  for (std::size_t i = 2; i <= k; ++i) f *= static_cast<double>(i);
  return f;
}

/// Orthonormal basis of the orthogonal complement of `basis` in R^d.
std::vector<Vec> orthogonal_complement(const std::vector<Vec>& basis,
                                       std::size_t d) {
  std::vector<Vec> full = basis;
  std::vector<Vec> complement;
  for (std::size_t k = 0; k < d && full.size() < d; ++k) {
    Vec e(d, 0.0);
    e[k] = 1.0;
    for (int pass = 0; pass < 2; ++pass) {
      for (const Vec& b : full) {
        const double c = e.dot(b);
        for (std::size_t i = 0; i < d; ++i) e[i] -= c * b[i];
      }
    }
    const double n = e.norm();
    if (n > 1e-7) {
      e *= 1.0 / n;
      full.push_back(e);
      complement.push_back(e);
    }
  }
  CHC_INTERNAL(full.size() == d, "complement construction must complete");
  return complement;
}

}  // namespace

Polytope Polytope::empty(std::size_t ambient_dim) {
  auto r = std::make_shared<Rep>();
  r->ambient_dim = ambient_dim;
  return Polytope(std::move(r));
}

Polytope Polytope::box(const Vec& lo, const Vec& hi) {
  const std::size_t d = lo.dim();
  CHC_CHECK(hi.dim() == d, "box corners must share a dimension");
  for (std::size_t i = 0; i < d; ++i) {
    CHC_CHECK(lo[i] <= hi[i], "box requires lo <= hi componentwise");
  }
  std::vector<Vec> corners;
  corners.reserve(std::size_t{1} << d);
  for (std::size_t mask = 0; mask < (std::size_t{1} << d); ++mask) {
    Vec c(d);
    for (std::size_t i = 0; i < d; ++i) c[i] = (mask >> i & 1) ? hi[i] : lo[i];
    corners.push_back(std::move(c));
  }
  return from_points(corners);
}

Polytope Polytope::from_points(const std::vector<Vec>& points,
                               double rel_tol) {
  CHC_CHECK(!points.empty(), "hull of an empty point set; use Polytope::empty");
  const std::size_t d = points[0].dim();
  CHC_CHECK(d >= 1, "points must have dimension >= 1");
  for (const Vec& q : points) {
    CHC_CHECK(q.dim() == d, "all points must share a dimension");
  }
  auto r = std::make_shared<Rep>();
  r->ambient_dim = d;
  r->verts = points;
  finalize(*r, rel_tol);
  return Polytope(std::move(r));
}

Polytope Polytope::from_walk2d(const std::vector<Vec>& points,
                               double rel_tol) {
  CHC_CHECK(!points.empty(), "hull of an empty point set; use Polytope::empty");
  CHC_CHECK(points[0].dim() == 2, "from_walk2d expects 2-D points");
  const std::size_t n = points.size();
  std::vector<double> xs(n), ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = points[i][0];
    ys[i] = points[i][1];
  }
  return from_convex_walk_xy(xs.data(), ys.data(), n, rel_tol);
}

Polytope Polytope::from_convex_walk_xy(const double* xs, const double* ys,
                                       std::size_t n, double rel_tol) {
  CHC_CHECK(n > 0, "hull of an empty point set; use Polytope::empty");

  // Same effective tolerance finalize() uses on its first attempt.
  std::size_t lo = 0;
  double scale = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    scale = std::max(scale, std::max(std::fabs(xs[i]), std::fabs(ys[i])));
    if (xs[i] < xs[lo] || (xs[i] == xs[lo] && ys[i] < ys[lo])) lo = i;
  }
  const double tol = rel_tol * scale;
  const double cross_tol = tol * scale * scale;

  // O(n) canonicalization of an already-convex CCW boundary walk: rotate
  // to the lexicographically-lowest (x, then y) vertex — hull2d's start —
  // then one Graham-style pass with hull2d's exact predicates (approx_eq
  // point dedup, cross ≤ tol pruning). Runs on index scratch; falls back
  // to the full sort-based hull whenever the walk is not robustly convex.
  std::vector<std::uint32_t> keep(n);
  const auto cross_keep = [&](std::size_t a, std::size_t b, std::size_t c) {
    return (xs[b] - xs[a]) * (ys[c] - ys[a]) -
           (ys[b] - ys[a]) * (xs[c] - xs[a]);
  };
  const auto near_pt = [&](std::size_t a, std::size_t b) {
    return std::fabs(xs[a] - xs[b]) <= tol && std::fabs(ys[a] - ys[b]) <= tol;
  };
  std::size_t k = 0;
  keep[k++] = static_cast<std::uint32_t>(lo);
  for (std::size_t s = 1; s < n; ++s) {
    const std::size_t i = (lo + s) % n;
    if (near_pt(keep[k - 1], i)) continue;
    while (k >= 2 && cross_keep(keep[k - 2], keep[k - 1], i) <= cross_tol) --k;
    keep[k++] = static_cast<std::uint32_t>(i);
  }
  // Close the loop: the junction back to the start vertex obeys the same
  // dedup and turn predicates as every interior vertex.
  while (k >= 2 && (near_pt(keep[k - 1], keep[0]) ||
                    cross_keep(keep[k - 2], keep[k - 1], keep[0]) <= cross_tol)) {
    --k;
  }
  const bool convex =
      k >= 3 && cross_keep(keep[k - 1], keep[0], keep[1]) > cross_tol;
  if (convex) {
    double twice = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t a = keep[i], b = keep[(i + 1) % k];
      twice += xs[a] * ys[b] - xs[b] * ys[a];
    }
    const double area = twice / 2.0;
    if (area > 0.0) {
      std::vector<Vec> hull;
      hull.reserve(k);
      for (std::size_t i = 0; i < k; ++i) {
        hull.push_back(Vec{xs[keep[i]], ys[keep[i]]});
      }
      return assemble_walk2d(std::move(hull), area);
    }
  }

  // Not a clean convex walk under this tolerance: run the exact path
  // from_points would, so the two constructors accept the same inputs.
  std::vector<Vec> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) points.push_back(Vec{xs[i], ys[i]});
  std::vector<Vec> hull = hull2d(points, tol);
  if (hull.size() < 3) return from_points(points, rel_tol);
  const double area = polygon_area(hull);
  if (!(area > 0.0)) return from_points(points, rel_tol);
  return assemble_walk2d(std::move(hull), area);
}

Polytope Polytope::assemble_walk2d(std::vector<Vec> hull, double area) {
  // Full-dimensional: identity subspace, so the local hull IS the vertex
  // set and the facet normals come straight off the CCW edges — the exact
  // k == 2 branch of finalize(), minus rank detection and the ladder. The
  // H-rep is deferred: CC rounds consume only vertices, so facets are
  // built on the first halfspaces() call.
  auto r = std::make_shared<Rep>();
  r->ambient_dim = 2;
  r->sub = AffineSubspace::canonical(2);
  r->verts = std::move(hull);
  // local_verts stays empty: the identity subspace makes it equal to
  // verts, so local_vertices() aliases instead of copying.
  r->measure = area;
  r->hrep_deferred = true;
  return Polytope(std::move(r));
}

void Polytope::finalize(Rep& r, double rel_tol) {
  const std::size_t d = r.ambient_dim;

  double scale = 1.0;
  for (const Vec& v : r.verts) scale = std::max(scale, v.max_abs());

  // Degeneracy ladder: if the hull at the detected affine rank collapses
  // (numerically thin set straddling the rank tolerance), re-detect the
  // affine hull at a coarser tolerance, demoting the dimension, until the
  // hull construction succeeds. Rank is monotone non-increasing in the
  // tolerance, so this terminates (worst case at a single point).
  std::size_t k = 0;
  std::vector<Vec> local;
  std::vector<Halfspace> local_hs;  // H-rep inside the affine hull
  bool built = false;
  double tol_factor = 1.0;
  for (int attempt = 0; attempt < 8 && !built; ++attempt, tol_factor *= 100) {
    const double eff_rel_tol = rel_tol * tol_factor;
    r.sub = AffineSubspace::from_points(r.verts, eff_rel_tol);
    if (r.sub.dim() == d) {
      // Full-dimensional: identity subspace so local == ambient coordinates
      // (no basis rotation/reflection).
      r.sub = AffineSubspace::canonical(d);
    }
    k = r.sub.dim();
    local.clear();
    local.reserve(r.verts.size());
    for (const Vec& v : r.verts) local.push_back(r.sub.project(v));
    local_hs.clear();
    const double tol = eff_rel_tol * scale;

    if (k == 0) {
      r.local_verts = {Vec(0)};
      r.measure = 0.0;
      built = true;
    } else if (k == 1) {
      double lo = local[0][0], hi = local[0][0];
      for (const Vec& q : local) {
        lo = std::min(lo, q[0]);
        hi = std::max(hi, q[0]);
      }
      r.local_verts = {Vec{lo}, Vec{hi}};
      local_hs.push_back({Vec{1.0}, hi});
      local_hs.push_back({Vec{-1.0}, -lo});
      r.measure = hi - lo;
      built = true;
    } else if (k == 2) {
      r.local_verts = hull2d(local, tol);
      if (r.local_verts.size() < 3) continue;  // thinner than the rank says
      r.measure = polygon_area(r.local_verts);
      for (std::size_t i = 0; i < r.local_verts.size(); ++i) {
        const Vec& a = r.local_verts[i];
        const Vec& b = r.local_verts[(i + 1) % r.local_verts.size()];
        // Outward normal of a CCW edge: rotate the edge direction by -90°.
        Vec n{b[1] - a[1], a[0] - b[0]};
        const double len = n.norm();
        CHC_INTERNAL(len > 1e-300, "degenerate polygon edge");
        n *= 1.0 / len;
        local_hs.push_back({n, n.dot(a)});
      }
      built = true;
    } else {
      Hull hull;
      try {
        hull = quickhull(local, eff_rel_tol);
      } catch (const ContractViolation&) {
        continue;  // did not span at quickhull's tolerance: demote
      }
      r.local_verts = hull.vertices;
      for (const auto& f : hull.facets) {
        local_hs.push_back({f.normal, f.offset});
      }
      // Intrinsic measure: fan of simplices from the vertex centroid.
      Vec c(k, 0.0);
      for (const Vec& v : r.local_verts) c += v;
      c *= 1.0 / static_cast<double>(r.local_verts.size());
      double vol = 0.0;
      for (const auto& f : hull.facets) {
        std::vector<Vec> cols;
        cols.reserve(k);
        for (std::size_t vi : f.verts) cols.push_back(hull.vertices[vi] - c);
        vol += std::fabs(det(std::move(cols)));
      }
      r.measure = vol / factorial(k);
      built = true;
    }
  }
  CHC_INTERNAL(built, "degeneracy ladder failed to build a hull");
  if (k == 0) r.verts = {r.sub.origin()};

  // Lift vertices back to ambient space (preserving local ordering, so 2-D
  // affine polytopes keep CCW order).
  if (k >= 1) {
    r.verts.clear();
    r.verts.reserve(r.local_verts.size());
    for (const Vec& lv : r.local_verts) r.verts.push_back(r.sub.lift(lv));
  }

  build_hrep(r, local_hs);
}

// Ambient H-representation: lift local facets, then pin the affine hull
// with an equality pair per complement direction.
void Polytope::build_hrep(Rep& r, const std::vector<Halfspace>& local_hs) {
  const std::size_t d = r.ambient_dim;
  const std::size_t k = r.sub.dim();
  r.hrep.clear();
  for (const Halfspace& hs : local_hs) {
    Vec a(d, 0.0);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < d; ++j) a[j] += hs.a[i] * r.sub.basis()[i][j];
    }
    r.hrep.push_back({a, hs.b + a.dot(r.sub.origin())});
  }
  for (const Vec& n : orthogonal_complement(r.sub.basis(), d)) {
    const double off = n.dot(r.sub.origin());
    r.hrep.push_back({n, off});
    r.hrep.push_back({n * -1.0, -off});
  }
}

std::size_t Polytope::affine_dim() const {
  CHC_CHECK(!is_empty(), "affine dimension of the empty polytope");
  return rep().sub.dim();
}

const std::vector<Halfspace>& Polytope::halfspaces() const {
  CHC_CHECK(!is_empty(), "H-representation of the empty polytope");
  const Rep& r = rep();
  if (r.hrep_deferred) {
    // Deferred walk-built polytope: derive the facets from the CCW vertex
    // loop on first use — the same loop (and therefore the same bits) the
    // eager k == 2 finalize branch runs.
    std::call_once(r.hrep_once, [&r] {
      const std::vector<Vec>& verts = r.verts;
      std::vector<Halfspace> hs;
      hs.reserve(verts.size());
      for (std::size_t i = 0; i < verts.size(); ++i) {
        const Vec& a = verts[i];
        const Vec& b = verts[(i + 1) % verts.size()];
        // Outward normal of a CCW edge: rotate the edge direction by -90°.
        Vec n{b[1] - a[1], a[0] - b[0]};
        const double len = n.norm();
        CHC_INTERNAL(len > 1e-300, "degenerate polygon edge");
        n *= 1.0 / len;
        hs.push_back({n, n.dot(a)});
      }
      r.hrep = std::move(hs);
    });
  }
  return r.hrep;
}

Vec Polytope::nearest_point(const Vec& p) const {
  CHC_CHECK(!is_empty(), "nearest point of the empty polytope");
  const Rep& r = rep();
  CHC_CHECK(p.dim() == r.ambient_dim, "query point dimension mismatch");
  if (r.verts.size() == 1) return r.verts[0];

  const std::size_t k = r.sub.dim();
  const Vec local_p = r.sub.project(p);
  Vec local_best(k, 0.0);
  const std::vector<Vec>& lv = r.local_vertices();
  if (k == 1) {
    local_best[0] = std::clamp(local_p[0], lv[0][0], lv[1][0]);
  } else if (k == 2) {
    local_best = polygon_nearest_point(lv, local_p);
  } else {
    local_best = nearest_point_in_hull(lv, local_p);
  }
  return r.sub.lift(local_best);
}

double Polytope::distance(const Vec& p) const {
  return nearest_point(p).dist(p);
}

bool Polytope::contains(const Vec& p, double tol) const {
  if (is_empty()) return false;
  // A nearest-point search returns a point of the polytope, so its
  // distance never undercounts: at or below `tol` settles containment.
  if (distance(p) <= tol) return true;
  const Rep& r = rep();
  if (r.sub.dim() < 3) return false;  // exact paths
  // Wolfe's default stop resolves distance only to about 1e-6·scale, the
  // size of a typical `tol`. Search again to a duality gap under
  // 1e-3·tol²: the distance error is at most the gap over the distance,
  // so beyond `tol` it stays under tol/1000. Wolfe scales its tolerance by
  // s2. (The facets cannot settle it: a near-duplicate vertex pair can
  // give quickhull a sliver facet that cuts through the hull.)
  const Vec local_p = r.sub.project(p);
  const std::vector<Vec>& lv = r.local_vertices();
  double s2 = 1.0;
  for (const Vec& v : lv) s2 = std::max(s2, (v - local_p).norm2());
  const Vec local_best =
      nearest_point_in_hull(lv, local_p, 1e-3 * tol * tol / s2);
  return r.sub.lift(local_best).dist(p) <= tol;
}

bool Polytope::contains(const Polytope& other, double tol) const {
  if (other.is_empty()) return true;
  if (is_empty()) return false;
  for (const Vec& v : other.vertices()) {
    if (!contains(v, tol)) return false;
  }
  return true;
}

const Vec& Polytope::support(const Vec& dir) const {
  CHC_CHECK(!is_empty(), "support of the empty polytope");
  const std::vector<Vec>& verts = vertices();
  std::size_t best = 0;
  double best_val = dir.dot(verts[0]);
  for (std::size_t i = 1; i < verts.size(); ++i) {
    const double v = dir.dot(verts[i]);
    if (v > best_val) {
      best_val = v;
      best = i;
    }
  }
  return verts[best];
}

Vec Polytope::vertex_centroid() const {
  CHC_CHECK(!is_empty(), "centroid of the empty polytope");
  Vec c(ambient_dim(), 0.0);
  for (const Vec& v : vertices()) c += v;
  return c * (1.0 / static_cast<double>(vertices().size()));
}

double Polytope::measure() const {
  CHC_CHECK(!is_empty(), "measure of the empty polytope");
  return rep().measure;
}

double Polytope::volume() const {
  CHC_CHECK(!is_empty(), "volume of the empty polytope");
  const Rep& r = rep();
  return (r.sub.dim() == r.ambient_dim) ? r.measure : 0.0;
}

std::pair<Vec, Vec> Polytope::bounding_box() const {
  CHC_CHECK(!is_empty(), "bounding box of the empty polytope");
  Vec lo = vertices()[0], hi = vertices()[0];
  for (const Vec& v : vertices()) {
    for (std::size_t i = 0; i < ambient_dim(); ++i) {
      lo[i] = std::min(lo[i], v[i]);
      hi[i] = std::max(hi[i], v[i]);
    }
  }
  return {lo, hi};
}

Polytope Polytope::translated(const Vec& t) const {
  CHC_CHECK(t.dim() == ambient_dim(), "translation dimension mismatch");
  if (is_empty()) return *this;
  std::vector<Vec> moved;
  moved.reserve(vertices().size());
  for (const Vec& v : vertices()) moved.push_back(v + t);
  return from_points(moved);
}

Polytope Polytope::scaled(double s) const {
  if (is_empty()) return *this;
  std::vector<Vec> scaled_pts;
  scaled_pts.reserve(vertices().size());
  for (const Vec& v : vertices()) scaled_pts.push_back(v * s);
  return from_points(scaled_pts);
}

std::ostream& operator<<(std::ostream& os, const Polytope& p) {
  if (p.is_empty()) return os << "{empty}";
  os << "{";
  for (std::size_t i = 0; i < p.vertices().size(); ++i) {
    if (i) os << ", ";
    os << p.vertices()[i];
  }
  return os << "}";
}

bool same_vertices(const Polytope& a, const Polytope& b) {
  if (&a.vertices() == &b.vertices()) return true;  // one representation
  if (a.ambient_dim() != b.ambient_dim()) return false;
  return a.vertices() == b.vertices();
}

double hausdorff(const Polytope& a, const Polytope& b) {
  CHC_CHECK(!a.is_empty() && !b.is_empty(),
            "Hausdorff distance requires non-empty polytopes");
  if (same_vertices(a, b)) return 0.0;
  double h = 0.0;
  for (const Vec& v : a.vertices()) h = std::max(h, b.distance(v));
  for (const Vec& v : b.vertices()) h = std::max(h, a.distance(v));
  return h;
}

bool approx_equal(const Polytope& a, const Polytope& b, double tol) {
  if (a.is_empty() || b.is_empty()) return a.is_empty() == b.is_empty();
  return hausdorff(a, b) <= tol;
}

}  // namespace chc::geo
