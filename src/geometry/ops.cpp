#include "geometry/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/check.hpp"
#include "common/combinatorics.hpp"
#include "geometry/combine2d.hpp"
#include "geometry/hull2d.hpp"
#include "geometry/quickhull.hpp"
#include "lp/simplex.hpp"

namespace chc::geo {
namespace {

// --- Halfspace intersection (LP + polar duality) -------------------------

/// Scratch buffers threaded through one intersect_halfspaces call,
/// including its lower-dimensional recursion: the LP matrices and the dual
/// point set are rebuilt at every recursion step, so they reuse capacity
/// instead of reallocating per step.
struct IntersectWorkspace {
  std::vector<std::vector<double>> A;
  std::vector<double> b;
  std::vector<Vec> dual_pts;
};

/// Splits halfspaces into LP matrices, reusing workspace capacity.
void to_matrices(const std::vector<Halfspace>& hs, IntersectWorkspace& ws) {
  ws.A.resize(hs.size());
  ws.b.resize(hs.size());
  for (std::size_t i = 0; i < hs.size(); ++i) {
    ws.A[i].assign(hs[i].a.begin(), hs[i].a.end());
    ws.b[i] = hs[i].b;
  }
}

double system_scale(const std::vector<Halfspace>& hs) {
  double scale = 1.0;
  for (const Halfspace& h : hs) {
    const double n = h.a.norm();
    if (n > 1e-13) scale = std::max(scale, std::fabs(h.b) / n);
  }
  return scale;
}

/// Vertex enumeration for a bounded full-dimensional system with interior
/// point `x0`, by polar duality: translate x0 to the origin, dualize each
/// halfspace a·x <= b (b > 0 after translation) to the point a/b; facets of
/// the dual hull map back to primal vertices.
std::vector<Vec> dual_vertices(const std::vector<Halfspace>& hs,
                               const Vec& x0, double rel_tol,
                               IntersectWorkspace& ws) {
  ws.dual_pts.clear();
  ws.dual_pts.reserve(hs.size());
  for (const Halfspace& h : hs) {
    const double bb = h.b - h.a.dot(x0);
    const double norm = h.a.norm();
    if (norm < 1e-13) continue;  // trivial constraint
    CHC_INTERNAL(bb > 0.0, "interior point must satisfy all constraints strictly");
    ws.dual_pts.push_back(h.a * (1.0 / bb));
  }
  const Hull dual = quickhull(ws.dual_pts, rel_tol);

  double dscale = 1.0;
  for (const Vec& p : ws.dual_pts) dscale = std::max(dscale, p.max_abs());
  std::vector<Vec> verts;
  verts.reserve(dual.facets.size());
  for (const auto& f : dual.facets) {
    // Facet {y : normal·y = offset}; a bounded primal needs offset > 0
    // (origin strictly inside the dual hull).
    CHC_CHECK(f.offset > 1e-9 * dscale,
              "halfspace system describes an unbounded set");
    Vec v = f.normal * (1.0 / f.offset);
    verts.push_back(v + x0);
  }
  return verts;
}

Polytope intersect_impl(std::size_t d, const std::vector<Halfspace>& hs,
                        double rel_tol, int depth, IntersectWorkspace& ws) {
  CHC_CHECK(d >= 1, "halfspace intersection needs dimension >= 1");
  CHC_INTERNAL(depth <= 64, "halfspace intersection recursion runaway");

  to_matrices(hs, ws);

  const auto cheb = lp::chebyshev_center(ws.A, ws.b);
  if (!cheb.feasible) return Polytope::empty(d);
  const Vec x0(cheb.center);
  const double scale = std::max(system_scale(hs), x0.max_abs());
  const double flat_tol = 1e-7 * scale;

  if (cheb.radius > flat_tol) {
    return Polytope::from_points(dual_vertices(hs, x0, rel_tol, ws), rel_tol);
  }

  // Flat (lower-dimensional) feasible set: find implicit equalities
  // (constraints tight over the whole feasible set).
  std::vector<Vec> eq_normals;
  for (std::size_t i = 0; i < hs.size(); ++i) {
    const double norm = hs[i].a.norm();
    if (norm < 1e-13) continue;
    const auto sol = lp::minimize(hs[i].a.coords(), ws.A, ws.b);
    CHC_INTERNAL(sol.status == lp::Status::kOptimal,
                 "feasible bounded subproblem must solve");
    if ((hs[i].b - sol.objective) / norm <= 10 * flat_tol) {
      eq_normals.push_back(hs[i].a * (1.0 / norm));
    }
  }
  if (eq_normals.empty()) {
    // Numerically flat but no single constraint is an implicit equality
    // (e.g. a needle-thin sliver). Treat the deepest point as the answer.
    return Polytope::from_points({x0}, rel_tol);
  }

  // Orthonormalize the equality normals, build the null-space basis N, and
  // recurse on the reduced system y -> x0 + N y.
  std::vector<Vec> eq_basis;
  for (const Vec& nrm : eq_normals) {
    Vec r = nrm;
    for (int pass = 0; pass < 2; ++pass) {
      for (const Vec& e : eq_basis) {
        const double c = r.dot(e);
        for (std::size_t i = 0; i < d; ++i) r[i] -= c * e[i];
      }
    }
    const double n = r.norm();
    if (n > 1e-7) eq_basis.push_back(r * (1.0 / n));
  }

  std::vector<Vec> null_basis;
  {
    std::vector<Vec> full = eq_basis;
    for (std::size_t k = 0; k < d && full.size() < d; ++k) {
      Vec e(d, 0.0);
      e[k] = 1.0;
      for (int pass = 0; pass < 2; ++pass) {
        for (const Vec& bvec : full) {
          const double c = e.dot(bvec);
          for (std::size_t i = 0; i < d; ++i) e[i] -= c * bvec[i];
        }
      }
      const double n = e.norm();
      if (n > 1e-7) {
        e *= 1.0 / n;
        full.push_back(e);
        null_basis.push_back(e);
      }
    }
  }

  if (null_basis.empty()) return Polytope::from_points({x0}, rel_tol);

  const std::size_t k = null_basis.size();
  std::vector<Halfspace> reduced;
  reduced.reserve(hs.size());
  for (const Halfspace& h : hs) {
    Vec ar(k);
    for (std::size_t j = 0; j < k; ++j) ar[j] = h.a.dot(null_basis[j]);
    const double br = h.b - h.a.dot(x0);
    if (ar.norm() < 1e-11 * std::max(1.0, h.a.norm())) continue;  // tight dir
    reduced.push_back({std::move(ar), br});
  }
  const Polytope local = intersect_impl(k, reduced, rel_tol, depth + 1, ws);
  if (local.is_empty()) {
    // The flat itself is feasible (x0 is), so at minimum the point survives.
    return Polytope::from_points({x0}, rel_tol);
  }
  std::vector<Vec> lifted;
  lifted.reserve(local.vertices().size());
  for (const Vec& y : local.vertices()) {
    Vec x = x0;
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t i = 0; i < d; ++i) x[i] += y[j] * null_basis[j][i];
    }
    lifted.push_back(std::move(x));
  }
  return Polytope::from_points(lifted, rel_tol);
}

/// CCW copy of a 2-D convex polygon's vertices (reverses if needed).
std::vector<Vec> ccw2(const std::vector<Vec>& poly) {
  if (poly.size() < 3) return poly;
  if (polygon_area(poly) < 0.0) {
    return std::vector<Vec>(poly.rbegin(), poly.rend());
  }
  return poly;
}

/// Shared operand validation for L; returns the ambient dimension.
std::size_t validate_combination(const std::vector<Polytope>& polys,
                                 const std::vector<double>& weights) {
  CHC_CHECK(!polys.empty(), "L of zero polytopes");
  CHC_CHECK(polys.size() == weights.size(),
            "L needs one weight per polytope");
  const std::size_t d = polys[0].ambient_dim();
  double wsum = 0.0;
  for (std::size_t i = 0; i < polys.size(); ++i) {
    CHC_CHECK(!polys[i].is_empty(), "L of an empty polytope (Definition 2)");
    CHC_CHECK(polys[i].ambient_dim() == d, "L operands must share dimension");
    CHC_CHECK(weights[i] >= -1e-12, "L weights must be non-negative");
    wsum += weights[i];
  }
  CHC_CHECK(std::fabs(wsum - 1.0) <= 1e-9, "L weights must sum to 1");
  return d;
}

Polytope linear_combination_1d(const std::vector<Polytope>& polys,
                               const std::vector<double>& weights,
                               double rel_tol) {
  double lo = 0.0, hi = 0.0;
  for (std::size_t i = 0; i < polys.size(); ++i) {
    const auto [plo, phi] = polys[i].bounding_box();
    lo += weights[i] * plo[0];
    hi += weights[i] * phi[0];
  }
  return Polytope::from_points({Vec{lo}, Vec{hi}}, rel_tol);
}

/// L in general dimension by a left fold: every sum of an accumulator
/// vertex and a scaled operand vertex, hull-pruned after each operand.
/// Zero-weight operands are skipped.
Polytope linear_combination_fold(const std::vector<Polytope>& polys,
                                 const std::vector<double>& weights,
                                 double rel_tol) {
  std::vector<Vec> acc = {Vec(polys[0].ambient_dim(), 0.0)};
  for (std::size_t i = 0; i < polys.size(); ++i) {
    if (weights[i] == 0.0) continue;
    std::vector<Vec> next;
    next.reserve(acc.size() * polys[i].vertices().size());
    for (const Vec& u : acc) {
      for (const Vec& v : polys[i].vertices()) {
        next.push_back(u + v * weights[i]);
      }
    }
    acc = Polytope::from_points(next, rel_tol).vertices();
  }
  return Polytope::from_points(acc, rel_tol);
}

// --- Engine: subset hulls -----------------------------------------------

/// Γ for d != 2: one halfspace system holding every (|X|-drop)-subset
/// hull's facets, appended in for_each_drop rank order, then intersected.
Polytope subset_hulls_by_halfspaces(const std::vector<Vec>& points,
                                    std::size_t drop, double rel_tol) {
  std::vector<Halfspace> hs;
  for_each_drop(points.size(), drop,
                [&](const std::vector<std::size_t>& kept) {
                  std::vector<Vec> sub;
                  sub.reserve(kept.size());
                  for (std::size_t i : kept) sub.push_back(points[i]);
                  const Polytope h = Polytope::from_points(sub, rel_tol);
                  const auto& f = h.halfspaces();
                  hs.insert(hs.end(), f.begin(), f.end());
                  return true;
                });
  return intersect_halfspaces(points[0].dim(), hs, rel_tol);
}

/// One (|X|-drop)-subset's hull in 2-D: CCW vertex polygon plus the edge
/// halfplanes the ordered reduction clips with.
struct SubsetHull2d {
  std::vector<Vec> poly;
  std::vector<Halfspace> hs;
};

SubsetHull2d build_subset_hull2d(const std::vector<Vec>& points,
                                 const std::vector<std::size_t>& kept,
                                 double rel_tol) {
  std::vector<Vec> sub;
  sub.reserve(kept.size());
  for (std::size_t i : kept) sub.push_back(points[i]);
  double scale = 1.0;
  for (const Vec& p : sub) scale = std::max(scale, p.max_abs());

  SubsetHull2d out;
  out.poly = hull2d(std::move(sub), rel_tol * scale);
  if (out.poly.size() >= 3) {
    // Full-dimensional: edge halfplanes straight off the CCW polygon (the
    // same normals Polytope::finalize derives, without the affine-subspace
    // and H-rep lifting machinery).
    out.hs.reserve(out.poly.size());
    for (std::size_t i = 0; i < out.poly.size(); ++i) {
      const Vec& a = out.poly[i];
      const Vec& b = out.poly[(i + 1) % out.poly.size()];
      Vec n{b[1] - a[1], a[0] - b[0]};
      const double len = n.norm();
      CHC_INTERNAL(len > 1e-300, "degenerate polygon edge");
      n *= 1.0 / len;
      out.hs.push_back({n, n.dot(a)});
    }
  } else {
    // Degenerate subset (segment or point): the canonical Polytope path
    // pins the affine hull with equality pairs.
    std::vector<Vec> again;
    again.reserve(kept.size());
    for (std::size_t i : kept) again.push_back(points[i]);
    const Polytope p = Polytope::from_points(again, rel_tol);
    out.poly = p.vertices();
    out.hs = p.halfspaces();
  }
  return out;
}

}  // namespace

Polytope intersect_halfspaces(std::size_t dim,
                              const std::vector<Halfspace>& halfspaces,
                              double rel_tol) {
  for (const Halfspace& h : halfspaces) {
    CHC_CHECK(h.a.dim() == dim, "halfspace dimension mismatch");
  }
  CHC_CHECK(!halfspaces.empty(), "unbounded: empty halfspace system");
  // One workspace per thread: the LP matrices and dual point set keep their
  // capacity across calls (and across the recursion inside one call), so a
  // steady-state round performs no heap allocation here. Safe because
  // intersect_impl is not re-entered through any of its callees.
  static thread_local IntersectWorkspace ws;
  return intersect_impl(dim, halfspaces, rel_tol, 0, ws);
}

Polytope intersect(const std::vector<Polytope>& polys, double rel_tol) {
  CHC_CHECK(!polys.empty(), "intersection of zero polytopes");
  const std::size_t d = polys[0].ambient_dim();
  std::vector<Halfspace> hs;
  for (const Polytope& p : polys) {
    CHC_CHECK(p.ambient_dim() == d, "polytopes must share an ambient space");
    if (p.is_empty()) return Polytope::empty(d);
    const auto& phs = p.halfspaces();
    hs.insert(hs.end(), phs.begin(), phs.end());
  }
  return intersect_halfspaces(d, hs, rel_tol);
}

Polytope intersect2d_clip(const std::vector<Polytope>& polys,
                          double rel_tol) {
  CHC_CHECK(!polys.empty(), "intersection of zero polytopes");
  for (const Polytope& p : polys) {
    CHC_CHECK(p.ambient_dim() == 2, "intersect2d_clip needs 2-D polytopes");
    if (p.is_empty()) return Polytope::empty(2);
  }

  double scale = 1.0;
  for (const Polytope& p : polys) {
    for (const Vec& v : p.vertices()) scale = std::max(scale, v.max_abs());
  }
  const double tol = rel_tol * scale;

  // Start from the first polytope's vertex polygon (CCW for full-dim;
  // clip_halfplane also accepts segments and points) and clip with every
  // halfspace of the others.
  std::vector<Vec> poly = ccw2(polys[0].vertices());
  for (std::size_t i = 1; i < polys.size() && !poly.empty(); ++i) {
    for (const Halfspace& hs : polys[i].halfspaces()) {
      poly = clip_halfplane(poly, hs.a, hs.b, tol);
      if (poly.empty()) break;
    }
  }
  if (poly.empty()) return Polytope::empty(2);
  return Polytope::from_points(poly, rel_tol);
}

Polytope linear_combination(const std::vector<Polytope>& polys,
                            const std::vector<double>& weights,
                            double rel_tol) {
  const std::size_t d = validate_combination(polys, weights);

  // λK ⊕ μK = (λ+μ)K for convex K: operands with identical vertex lists
  // (same_vertices, the intern table's value identity) merge into one
  // group whose weight is their sum, in first-occurrence order; zero
  // weights are dropped. One group left means L returns that operand.
  std::vector<std::size_t> rep;  // first operand of each group
  std::vector<double> group_w;
  for (std::size_t i = 0; i < polys.size(); ++i) {
    if (weights[i] == 0.0) continue;
    std::size_t g = 0;
    while (g < rep.size() && !same_vertices(polys[rep[g]], polys[i])) ++g;
    if (g == rep.size()) {
      rep.push_back(i);
      group_w.push_back(weights[i]);
    } else {
      group_w[g] += weights[i];
    }
  }
  CHC_INTERNAL(!rep.empty(), "weights sum to 1, so one is positive");
  if (rep.size() == 1) return polys[rep[0]];

  const auto kernel = [&](const std::vector<Polytope>& ps,
                          const std::vector<double>& ws) {
    if (d == 1) return linear_combination_1d(ps, ws, rel_tol);
    if (d == 2) return linear_combination_kway2d(ps, ws, rel_tol);
    return linear_combination_fold(ps, ws, rel_tol);
  };
  if (rep.size() == polys.size()) return kernel(polys, weights);
  std::vector<Polytope> grouped;
  grouped.reserve(rep.size());
  for (std::size_t i : rep) grouped.push_back(polys[i]);
  return kernel(grouped, group_w);
}

Polytope equal_weight_combination(const std::vector<Polytope>& polys,
                                  double rel_tol) {
  CHC_CHECK(!polys.empty(), "L of zero polytopes");
  const double w = 1.0 / static_cast<double>(polys.size());
  return linear_combination(polys, std::vector<double>(polys.size(), w),
                            rel_tol);
}

Polytope intersection_of_subset_hulls(const std::vector<Vec>& points,
                                      std::size_t drop, double rel_tol) {
  CHC_CHECK(!points.empty(), "subset-hull intersection of no points");
  CHC_CHECK(drop < points.size(), "must keep at least one point per subset");
  const std::size_t d = points[0].dim();

  if (drop == 0) return Polytope::from_points(points, rel_tol);

  if (d == 2) {
    // A round-0 call builds a handful of small hulls, in lexicographic
    // subset order.
    std::vector<SubsetHull2d> hulls;
    for_each_drop(points.size(), drop,
                  [&](const std::vector<std::size_t>& kept) {
                    hulls.push_back(build_subset_hull2d(points, kept, rel_tol));
                    return true;
                  });

    double scale = 1.0;
    for (const SubsetHull2d& h : hulls) {
      for (const Vec& v : h.poly) scale = std::max(scale, v.max_abs());
    }
    const double tol = rel_tol * scale;
    // Ordered reduction: clip the first subset's polygon with every later
    // subset's halfplanes, in rank order. Almost every clip is a no-op (the
    // intersection shrinks once, then stays inside most later hulls), so a
    // halfplane clips only when some vertex lies outside it.
    std::vector<Vec> poly = std::move(hulls[0].poly);
    for (std::size_t i = 1; i < hulls.size() && !poly.empty(); ++i) {
      for (const Halfspace& hs : hulls[i].hs) {
        const double dist_tol = tol * std::max(1.0, hs.a.norm());
        const auto outside = [&](const Vec& v) {
          return hs.a.dot(v) > hs.b + dist_tol;
        };
        if (std::none_of(poly.begin(), poly.end(), outside)) continue;
        poly = clip_halfplane(poly, hs.a, hs.b, tol);
        if (poly.empty()) break;
      }
    }
    if (poly.empty()) return Polytope::empty(2);
    // The clipped polygon is a CCW convex walk: from_walk2d gives it
    // from_points' vertex bits with a deferred H-rep and no second
    // (local) vertex array, the same slim form as L's d = 2 output.
    return Polytope::from_walk2d(poly, rel_tol);
  }

  return subset_hulls_by_halfspaces(points, drop, rel_tol);
}

// --- Reference kernels (pre-engine implementations, the test oracles) ----

Polytope linear_combination_pairwise(const std::vector<Polytope>& polys,
                                     const std::vector<double>& weights,
                                     double rel_tol) {
  const std::size_t d = validate_combination(polys, weights);

  if (d == 1) return linear_combination_1d(polys, weights, rel_tol);

  if (d == 2) {
    std::vector<Vec> acc = {Vec(2, 0.0)};
    for (std::size_t i = 0; i < polys.size(); ++i) {
      if (weights[i] == 0.0) continue;
      std::vector<Vec> scaled;
      scaled.reserve(polys[i].vertices().size());
      for (const Vec& v : ccw2(polys[i].vertices())) {
        scaled.push_back(v * weights[i]);
      }
      acc = minkowski_sum2d(acc, scaled);
    }
    return Polytope::from_points(acc, rel_tol);
  }

  return linear_combination_fold(polys, weights, rel_tol);
}

Polytope intersection_of_subset_hulls_reference(const std::vector<Vec>& points,
                                                std::size_t drop,
                                                double rel_tol) {
  CHC_CHECK(!points.empty(), "subset-hull intersection of no points");
  CHC_CHECK(drop < points.size(), "must keep at least one point per subset");
  const std::size_t d = points[0].dim();

  if (drop == 0) return Polytope::from_points(points, rel_tol);

  if (d != 2) return subset_hulls_by_halfspaces(points, drop, rel_tol);

  std::vector<Polytope> hulls;
  for_each_drop(points.size(), drop,
                [&](const std::vector<std::size_t>& kept) {
                  std::vector<Vec> sub;
                  sub.reserve(kept.size());
                  for (std::size_t i : kept) sub.push_back(points[i]);
                  hulls.push_back(Polytope::from_points(sub, rel_tol));
                  return true;
                });
  return intersect2d_clip(hulls, rel_tol);
}

}  // namespace chc::geo
