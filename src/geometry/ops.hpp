// Polytope operations used directly by Algorithm CC.
//
//  * intersect_halfspaces / intersect — line 5 of the algorithm and the I_Z
//    optimality certificate intersect convex hulls; we go through the
//    H-representation, find an interior point by LP (Chebyshev center),
//    and enumerate vertices by polar duality. Lower-dimensional
//    intersections are detected via implicit equalities and solved
//    recursively inside their affine hull.
//  * linear_combination — the paper's function L (Definition 2): the
//    weighted Minkowski sum of convex polytopes. The engine computes it by
//    a single k-way rotating edge-vector merge for d = 2 (O(total edges))
//    and a balanced pairwise merge tree with hull pruning in general
//    dimension (subtree merges run on the common::ThreadPool).
//  * intersection_of_subset_hulls — ∩_{C ⊆ X, |C| = |X|-f} H(C), shared by
//    line 5 (on X_i) and the I_Z lower bound (on X_Z). Subset hulls are
//    built on the calling thread for d <= 2 and in parallel on the pool for
//    d >= 3, and reduced in subset-rank order, so the result is
//    bit-identical for every thread count (DESIGN.md §9).
//
// Threading knob: CHC_GEO_THREADS sizes the shared pool the d >= 3 kernels
// use (1 = fully serial, unset = hardware_concurrency); see
// common/thread_pool.hpp.
#pragma once

#include <cstddef>
#include <vector>

#include "geometry/polytope.hpp"
#include "geometry/vec.hpp"

namespace chc::geo {

/// V-representation of {x in R^dim : a·x <= b for all given halfspaces}.
/// Returns the empty polytope when the system is infeasible. The system
/// must describe a *bounded* set (always true for intersections of hulls);
/// unboundedness is reported as a contract violation.
Polytope intersect_halfspaces(std::size_t dim,
                              const std::vector<Halfspace>& halfspaces,
                              double rel_tol = 1e-9);

/// Intersection of finitely many polytopes (empty if any operand is empty
/// or the intersection is empty).
Polytope intersect(const std::vector<Polytope>& polys, double rel_tol = 1e-9);

/// 2-D fast path: intersects by Sutherland–Hodgman halfplane clipping
/// instead of LP + duality. Exact for full-dimensional 2-D polytopes;
/// operands and ambient space must be 2-D. Used by the d = 2 consensus hot
/// path and as an independent cross-check of intersect()'s generic path.
Polytope intersect2d_clip(const std::vector<Polytope>& polys,
                          double rel_tol = 1e-9);

/// The paper's L (Definition 2): linear combination of non-empty convex
/// polytopes with non-negative weights summing to 1. Equivalently the
/// Minkowski sum ⊕_i (c_i · h_i). The result is convex, non-empty, and —
/// when every operand is valid — valid (Lemma 5). Operands with identical
/// vertex lists (same_vertices) are combined once with their summed
/// weight, since λK ⊕ μK = (λ+μ)K; when only one distinct operand has
/// non-zero weight, it is returned unchanged.
Polytope linear_combination(const std::vector<Polytope>& polys,
                            const std::vector<double>& weights,
                            double rel_tol = 1e-9);

/// Identical weights 1/|polys| (how Algorithm CC invokes L on line 14).
/// Deliberately not an overload of linear_combination: a double second
/// argument there would silently re-interpret a brace-initialized weight
/// list as a tolerance.
Polytope equal_weight_combination(const std::vector<Polytope>& polys,
                                  double rel_tol = 1e-9);

/// ∩_{C ⊆ points, |C| = |points| - drop} H(C), the multiset-subset hull
/// intersection of Algorithm CC line 5 (with drop = f) and of I_Z (eq. 21).
/// May legitimately be empty when |points| < (d+1)·drop + 1 (Tverberg bound,
/// Lemma 2) — callers below the resilience bound see that case. This is the
/// raw kernel, with no memo: the processes call the memoized
/// intersection_of_subset_hulls_interned (geometry/intern.hpp), while the
/// checker's I_Z calls this one, so the oracle does not share the memo.
Polytope intersection_of_subset_hulls(const std::vector<Vec>& points,
                                      std::size_t drop,
                                      double rel_tol = 1e-9);

// --- Reference kernels -----------------------------------------------------
// The pre-engine serial implementations, kept verbatim: the differential
// property tests assert the engine kernels above are vertex-set-identical
// (up to rel_tol) to these, and bench_geometry_micro uses them as the
// pre-optimization baseline rows in BENCH_geometry.json.

/// L by the original sequential left-fold: pairwise minkowski_sum2d for
/// d = 2, pairwise candidate products with per-step hull pruning otherwise.
/// Identical operands are not grouped: every operand is summed in turn.
Polytope linear_combination_pairwise(const std::vector<Polytope>& polys,
                                     const std::vector<double>& weights,
                                     double rel_tol = 1e-9);

/// Subset-hull intersection by the original sequential enumeration: one
/// Polytope per subset, then intersect2d_clip (d = 2) or one big
/// halfspace system (d != 2).
Polytope intersection_of_subset_hulls_reference(const std::vector<Vec>& points,
                                                std::size_t drop,
                                                double rel_tol = 1e-9);

}  // namespace chc::geo
