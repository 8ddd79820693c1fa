// The d = 2 linear-combination engine.
//
// L in the plane is a k-way Minkowski sum: the boundary of the sum is the
// angle-sorted concatenation of every operand's (scaled) edge vectors,
// walked from the sum of the operands' bottom-most vertices. The engine
// builds each operand's edge fan — its CCW vertex loop scaled by its
// weight, from the bottom-most vertex, whose edges a canonical polytope
// already lists in angle order (the fan starts in [0, π), ends in [π, 2π),
// and strict convexity makes the order strict, so one is_sorted pass
// replaces a sort) — then k-way merges the fans while walking the merged
// edges, and canonicalizes the walk (Polytope::from_convex_walk_xy).
//
// The merge comparator is value-based — pseudo-angle half, cross product,
// then the raw IEEE bit patterns of (ex, ey) — so any two edges it ranks
// equal are bitwise-identical vectors, and the merged sequence depends on
// the edge multiset alone, not on the order the operands are passed in.
#pragma once

#include <vector>

#include "geometry/polytope.hpp"

namespace chc::geo {

/// L (Definition 2) of non-empty 2-D polytopes, as validated by
/// linear_combination: ⊕ weights[i] · polys[i], skipping zero weights. The
/// start vertex is summed in operand order.
Polytope linear_combination_kway2d(const std::vector<Polytope>& polys,
                                   const std::vector<double>& weights,
                                   double rel_tol);

}  // namespace chc::geo
