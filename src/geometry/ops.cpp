#include "geometry/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/arena.hpp"
#include "common/check.hpp"
#include "common/combinatorics.hpp"
#include "common/thread_pool.hpp"
#include "geometry/combine2d.hpp"
#include "geometry/hull2d.hpp"
#include "geometry/quickhull.hpp"
#include "geometry/simd.hpp"
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

// --- Engine: balanced merge tree (general d) ------------------------------

/// Candidate budget per pruning call in the merge tree. One huge
/// from_points call is superlinear in its input and output (quickhull +
/// facet canonicalization), so merges above this budget are split into
/// chunks whose extreme points are found independently and re-pruned —
/// exact (hull of union of chunk-hull vertices = hull of the whole set)
/// and it turns the root merge into pool-wide parallel work.
constexpr std::size_t kMergeChunkCands = 1024;

/// L in general dimension by a balanced pairwise merge tree: each level
/// merges adjacent operands (candidate vertex products, hull-pruned) on
/// the shared pool. Large merges are chunked (kMergeChunkCands). Tree
/// shape and chunk boundaries depend only on operand sizes, so the result
/// is identical for every thread count.
Polytope linear_combination_tree(const std::vector<Polytope>& polys,
                                 const std::vector<double>& weights,
                                 double rel_tol) {
  std::vector<std::vector<Vec>> ops;
  ops.reserve(polys.size());
  for (std::size_t i = 0; i < polys.size(); ++i) {
    if (weights[i] == 0.0) continue;
    std::vector<Vec> scaled;
    scaled.reserve(polys[i].vertices().size());
    for (const Vec& v : polys[i].vertices()) scaled.push_back(v * weights[i]);
    ops.push_back(std::move(scaled));
  }
  CHC_INTERNAL(!ops.empty(), "weights sum to 1, so one is positive");

  common::ThreadPool& pool = common::ThreadPool::global();
  while (ops.size() > 1) {
    const std::size_t pairs = ops.size() / 2;

    // Split each pair's candidate product a x b into chunks of contiguous
    // a-rows, at most kMergeChunkCands candidates each. The flat chunk
    // list is the parallel job space, so a level with a single huge merge
    // (the tree root) still fans out across the pool.
    struct Chunk {
      std::size_t pair, a_begin, a_end;
    };
    std::vector<Chunk> chunks;
    for (std::size_t p = 0; p < pairs; ++p) {
      const std::size_t na = ops[2 * p].size();
      const std::size_t nb = ops[2 * p + 1].size();
      const std::size_t rows =
          std::max<std::size_t>(1, kMergeChunkCands / std::max<std::size_t>(nb, 1));
      for (std::size_t r = 0; r < na; r += rows) {
        chunks.push_back({p, r, std::min(na, r + rows)});
      }
    }

    std::vector<std::vector<Vec>> pruned(chunks.size());
    pool.parallel_for(chunks.size(), [&](std::size_t c) {
      const Chunk& ch = chunks[c];
      const std::vector<Vec>& a = ops[2 * ch.pair];
      const std::vector<Vec>& b = ops[2 * ch.pair + 1];
      std::vector<Vec> cands;
      cands.reserve((ch.a_end - ch.a_begin) * b.size());
      for (std::size_t i = ch.a_begin; i < ch.a_end; ++i) {
        for (const Vec& v : b) cands.push_back(a[i] + v);
      }
      pruned[c] = Polytope::from_points(cands, rel_tol).vertices();
    });

    // Re-prune each pair over its chunks' surviving vertices (chunk order
    // is fixed, so concatenation is deterministic). Single-chunk pairs are
    // already exact and skip the second pass.
    std::vector<std::vector<Vec>> next(pairs);
    std::vector<std::size_t> multi;  // pairs needing the re-prune pass
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      auto& dst = next[chunks[c].pair];
      if (dst.empty()) {
        dst = std::move(pruned[c]);
      } else {
        dst.insert(dst.end(), std::make_move_iterator(pruned[c].begin()),
                   std::make_move_iterator(pruned[c].end()));
        if (multi.empty() || multi.back() != chunks[c].pair) {
          multi.push_back(chunks[c].pair);
        }
      }
    }
    pool.parallel_for(multi.size(), [&](std::size_t m) {
      next[multi[m]] =
          Polytope::from_points(next[multi[m]], rel_tol).vertices();
    });

    if (ops.size() % 2 == 1) next.push_back(std::move(ops.back()));
    ops = std::move(next);
  }
  return Polytope::from_points(ops[0], rel_tol);
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

// --- Engine: subset hulls -----------------------------------------------

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

/// The working polygon of the ordered 2-D clip reduction plus an SoA
/// (coordinate-major) mirror of its vertices, so the per-halfplane
/// containment pre-check is one batched simd::all_below sweep. The mirror
/// lives on the thread arena and is rebuilt only when a clip actually
/// changes the polygon — in the subset-hull reduction almost all clips are
/// no-ops (the intersection shrinks once, then stays inside most subsequent
/// hulls), so the common case is a pure read.
class ClipReduction2d {
 public:
  explicit ClipReduction2d(std::vector<Vec> poly) : poly_(std::move(poly)) {}

  const std::vector<Vec>& poly() const { return poly_; }
  bool empty() const { return poly_.empty(); }

  /// Clips by {x : a·x <= b}; returns false once the polygon is empty.
  bool clip(const Vec& a, double b, double tol) {
    const double dist_tol = tol * std::max(1.0, a.norm());
    if (dirty_) {
      sx_.assign(poly_.size(), 0.0);
      sy_.assign(poly_.size(), 0.0);
      for (std::size_t i = 0; i < poly_.size(); ++i) {
        sx_[i] = poly_[i][0];
        sy_[i] = poly_[i][1];
      }
      dirty_ = false;
    }
    const double* xs[2] = {sx_.data(), sy_.data()};
    if (simd::all_below(xs, 2, poly_.size(), a.data(), b + dist_tol)) {
      return true;  // every vertex already inside: the clip is the identity
    }
    poly_ = clip_halfplane(poly_, a, b, tol);
    dirty_ = true;
    return !poly_.empty();
  }

 private:
  std::vector<Vec> poly_;
  common::ArenaVector<double> sx_, sy_;
  bool dirty_ = true;
};

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
    return linear_combination_tree(ps, ws, rel_tol);
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
    // A round-0 call builds a handful of small hulls: they are built on the
    // calling thread, in lexicographic subset order.
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
    // subset's halfplanes, in rank order.
    common::ArenaScope scratch;  // reclaims the SoA mirrors wholesale
    ClipReduction2d reduction(hulls[0].poly);
    bool alive = !reduction.empty();
    for (std::size_t i = 1; i < hulls.size() && alive; ++i) {
      for (const Halfspace& hs : hulls[i].hs) {
        alive = reduction.clip(hs.a, hs.b, tol);
        if (!alive) break;
      }
    }
    if (!alive) return Polytope::empty(2);
    // The clipped polygon is a CCW convex walk: from_walk2d gives it
    // from_points' vertex bits with a deferred H-rep and no second
    // (local) vertex array, the same slim form as L's d = 2 output.
    return Polytope::from_walk2d(reduction.poly(), rel_tol);
  }

  // Materialize the lexicographic subset order once: at d >= 3 the
  // quickhulls fan out to the pool indexed by subset rank, so the halfspace
  // system is concatenated in exactly the order the serial enumeration
  // would produce — bit-identical results for every CHC_GEO_THREADS value.
  // d = 1 builds its intervals in a plain loop.
  std::vector<std::vector<std::size_t>> subsets;
  for_each_drop(points.size(), drop,
                [&](const std::vector<std::size_t>& kept) {
                  subsets.push_back(kept);
                  return true;
                });
  std::vector<std::vector<Halfspace>> sub_hs(subsets.size());
  const auto build = [&](std::size_t i) {
    std::vector<Vec> sub;
    sub.reserve(subsets[i].size());
    for (std::size_t k : subsets[i]) sub.push_back(points[k]);
    sub_hs[i] = Polytope::from_points(sub, rel_tol).halfspaces();
  };
  if (d == 1) {
    for (std::size_t i = 0; i < subsets.size(); ++i) build(i);
  } else {
    common::ThreadPool::global().parallel_for(subsets.size(), build);
  }
  std::vector<Halfspace> hs;  // concatenated in subset-rank order
  for (std::vector<Halfspace>& shs : sub_hs) {
    hs.insert(hs.end(), std::make_move_iterator(shs.begin()),
              std::make_move_iterator(shs.end()));
  }
  return intersect_halfspaces(d, hs, rel_tol);
}

// --- Reference kernels (pre-engine serial implementations) ----------------

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

  // General dimension: pairwise candidate sums with hull pruning per step.
  std::vector<Vec> acc = {Vec(d, 0.0)};
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

Polytope intersection_of_subset_hulls_reference(const std::vector<Vec>& points,
                                                std::size_t drop,
                                                double rel_tol) {
  CHC_CHECK(!points.empty(), "subset-hull intersection of no points");
  CHC_CHECK(drop < points.size(), "must keep at least one point per subset");
  const std::size_t d = points[0].dim();

  if (drop == 0) return Polytope::from_points(points, rel_tol);

  std::vector<Polytope> hulls;
  std::vector<Halfspace> hs;
  for_each_drop(points.size(), drop,
                [&](const std::vector<std::size_t>& kept) {
                  std::vector<Vec> sub;
                  sub.reserve(kept.size());
                  for (std::size_t i : kept) sub.push_back(points[i]);
                  Polytope h = Polytope::from_points(sub, rel_tol);
                  if (d == 2) {
                    hulls.push_back(std::move(h));
                  } else {
                    const auto& f = h.halfspaces();
                    hs.insert(hs.end(), f.begin(), f.end());
                  }
                  return true;
                });
  if (d == 2) return intersect2d_clip(hulls, rel_tol);
  return intersect_halfspaces(d, hs, rel_tol);
}

}  // namespace chc::geo
