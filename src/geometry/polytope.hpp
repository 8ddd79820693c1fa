// Convex polytopes — the state objects of Algorithm CC.
//
// A Polytope is stored primarily in V-representation (its minimal vertex
// set). Construction canonicalizes arbitrary point multisets: duplicates are
// merged, non-extreme points dropped, and degenerate (lower-dimensional)
// sets are detected via their affine hull and solved inside that subspace —
// no random perturbation, so adversarially collinear consensus inputs stay
// exact.
//
// The H-representation (`halfspaces()`) is derived on construction: facet
// inequalities inside the affine hull, lifted to ambient space, plus an
// equality pair per direction orthogonal to the affine hull. This is what
// the hull-intersection step of Algorithm CC (line 5) consumes.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "geometry/affine.hpp"
#include "geometry/vec.hpp"

namespace chc::geo {

/// Closed halfspace {x : a·x <= b}.
struct Halfspace {
  Vec a;
  double b = 0.0;
};

class Polytope {
 public:
  /// The empty polytope in R^ambient_dim.
  static Polytope empty(std::size_t ambient_dim);

  /// Convex hull of a point multiset. Handles any affine dimension.
  static Polytope from_points(const std::vector<Vec>& points,
                              double rel_tol = 1e-9);

  /// Fast-path hull of a 2-D point loop that is expected to be a
  /// full-dimensional convex boundary walk (the Minkowski combination
  /// output): runs the same hull2d cleanup from_points would, but skips
  /// affine-rank detection and the degeneracy ladder, pinning the canonical
  /// (identity) subspace directly. Falls back to from_points whenever the
  /// cleaned polygon is not robustly 2-dimensional, so it accepts exactly
  /// the same inputs.
  static Polytope from_walk2d(const std::vector<Vec>& points,
                              double rel_tol = 1e-9);

  /// Same contract as from_walk2d over coordinate arrays (`xs[i]`, `ys[i]`,
  /// i < n): the allocation-lean form the combination kernel emits into.
  /// The arrays are scratch and not retained.
  static Polytope from_convex_walk_xy(const double* xs, const double* ys,
                                      std::size_t n, double rel_tol = 1e-9);

  /// Axis-aligned box [lo, hi] (for workloads and clipping).
  static Polytope box(const Vec& lo, const Vec& hi);

  Polytope() = default;  // empty in dimension 0; prefer the factories

  bool is_empty() const { return verts_.empty(); }
  std::size_t ambient_dim() const { return ambient_dim_; }
  /// Intrinsic (affine-hull) dimension; requires a non-empty polytope.
  std::size_t affine_dim() const;

  /// Minimal vertex set. For 2-D-affine polytopes the order is CCW within
  /// the affine hull.
  const std::vector<Vec>& vertices() const { return verts_; }

  /// Ambient H-representation (facets plus equality pairs for flats).
  /// Requires a non-empty polytope.
  const std::vector<Halfspace>& halfspaces() const;

  /// Nearest point of the polytope to `p` (exact for ambient dim 1–2,
  /// Frank–Wolfe with away steps otherwise). Requires non-empty.
  Vec nearest_point(const Vec& p) const;

  /// Euclidean distance from `p` (0 when inside). Requires non-empty.
  double distance(const Vec& p) const;

  /// True when `p` is within `tol` of the polytope (empty contains nothing).
  bool contains(const Vec& p, double tol = 1e-7) const;

  /// True when every vertex of `other` is within `tol` of this polytope.
  /// The empty polytope is contained in everything.
  bool contains(const Polytope& other, double tol = 1e-7) const;

  /// Vertex supporting direction `dir` (argmax over vertices of dir·v,
  /// first vertex winning ties).
  const Vec& support(const Vec& dir) const;

  /// Arithmetic mean of the vertices (a canonical interior point).
  Vec vertex_centroid() const;

  /// Intrinsic Lebesgue measure within the affine hull: length for segments,
  /// area for 2-D-affine polytopes, k-volume in general; 1 for points...
  /// no — 0-dimensional measure of a point is defined here as 0 so that
  /// "degenerate" outputs are easy to detect.
  double measure() const;

  /// Full-dimensional volume in ambient space (0 when affine_dim < dim).
  double volume() const;

  /// Componentwise bounding box (lo, hi). Requires non-empty.
  std::pair<Vec, Vec> bounding_box() const;

  Polytope translated(const Vec& t) const;
  Polytope scaled(double s) const;  ///< scales about the origin

 private:
  /// Deferred H-rep for walk-built full-dimensional 2-D polytopes: the CC
  /// round pipeline consumes only vertices, so facet construction waits for
  /// the first halfspaces() call. The cell is shared by copies (one build
  /// serves all) and call_once makes concurrent first readers safe; the
  /// built facets are bit-identical to the eager construction's.
  struct HrepCell {
    std::once_flag once;
    std::vector<Halfspace> hs;
  };

  std::size_t ambient_dim_ = 0;
  std::vector<Vec> verts_;            // canonical minimal vertices (ambient)
  AffineSubspace sub_ = AffineSubspace::from_points({Vec{0.0}});  // placeholder
  std::vector<Vec> local_verts_;      // verts_ projected into sub_; may be
                                      // empty when sub_ is the identity
                                      // (walk-built) — use local_vertices()
  std::vector<Halfspace> hrep_;       // ambient H-rep (empty when deferred)
  std::shared_ptr<HrepCell> hrep_cell_;  // non-null iff H-rep is deferred
  double intrinsic_measure_ = 0.0;

  /// Vertices in subspace coordinates; identical to verts_ (and not stored
  /// twice) for identity-subspace polytopes.
  const std::vector<Vec>& local_vertices() const {
    return local_verts_.empty() ? verts_ : local_verts_;
  }
  void finalize(double rel_tol);      // fills sub_/local_verts_/hrep_/measure
  void build_hrep(const std::vector<Halfspace>& local_hs);  // lift to ambient
  /// Full-dimensional 2-D assembly from a canonical CCW hull: identity
  /// subspace, deferred H-rep.
  static Polytope assemble_walk2d(std::vector<Vec> hull, double area);
};

std::ostream& operator<<(std::ostream& os, const Polytope& p);

/// Exact value identity: same ambient dimension and an equal vertex list,
/// coordinate for coordinate. Canonical construction makes this the same
/// point set, so it is the intern table's notion of "one value" and L's
/// notion of identical operands.
bool same_vertices(const Polytope& a, const Polytope& b);

/// Hausdorff distance d_H (paper eq. 1) between two non-empty polytopes.
/// Exact up to the nearest-point tolerance: the farthest point of a convex
/// set from another convex set is attained at a vertex. Identical vertex
/// lists answer 0 without a nearest-point search (d_H(K, K) = 0).
double hausdorff(const Polytope& a, const Polytope& b);

/// True when each is contained in the other within `tol`.
bool approx_equal(const Polytope& a, const Polytope& b, double tol = 1e-7);

}  // namespace chc::geo
