// Property-based sweeps over the geometry kernel: invariants that must hold
// on random inputs across dimensions, checked with parameterized suites.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "geometry/distance.hpp"
#include "geometry/hull2d.hpp"
#include "geometry/ops.hpp"
#include "geometry/polytope.hpp"
#include "geometry/tverberg.hpp"

namespace chc::geo {
namespace {

std::vector<Vec> cloud(Rng& rng, std::size_t m, std::size_t d,
                       double lo = -1.0, double hi = 1.0) {
  std::vector<Vec> pts;
  pts.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    Vec p(d);
    for (std::size_t c = 0; c < d; ++c) p[c] = rng.uniform(lo, hi);
    pts.push_back(std::move(p));
  }
  return pts;
}

// ---------------------------------------------------------------------
// Hull properties across dimensions.
// ---------------------------------------------------------------------

class HullProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HullProperty, HullContainsAllInputPoints) {
  const std::size_t d = GetParam();
  Rng rng(100 + d);
  for (int trial = 0; trial < 8; ++trial) {
    const auto pts = cloud(rng, 12 + 4 * d, d);
    const auto p = Polytope::from_points(pts);
    for (const Vec& q : pts) {
      EXPECT_TRUE(p.contains(q, 1e-6)) << "d=" << d << " trial=" << trial;
    }
  }
}

TEST_P(HullProperty, VerticesAreASubsetOfInputs) {
  const std::size_t d = GetParam();
  Rng rng(200 + d);
  const auto pts = cloud(rng, 20, d);
  const auto p = Polytope::from_points(pts);
  for (const Vec& v : p.vertices()) {
    bool found = false;
    for (const Vec& q : pts) {
      if (approx_eq(v, q, 1e-9)) found = true;
    }
    EXPECT_TRUE(found) << "vertex " << v << " is not an input point";
  }
}

TEST_P(HullProperty, HullIsIdempotent) {
  const std::size_t d = GetParam();
  Rng rng(300 + d);
  const auto pts = cloud(rng, 18, d);
  const auto p = Polytope::from_points(pts);
  const auto q = Polytope::from_points(p.vertices());
  EXPECT_EQ(p.vertices().size(), q.vertices().size());
  EXPECT_LT(hausdorff(p, q), 1e-9);
}

TEST_P(HullProperty, HRepAndVRepConsistent) {
  // Every vertex satisfies every halfspace with near-equality on at least
  // one (vertices are on the boundary), and the centroid is interior for
  // full-dimensional polytopes.
  const std::size_t d = GetParam();
  Rng rng(400 + d);
  const auto pts = cloud(rng, 16, d);
  const auto p = Polytope::from_points(pts);
  ASSERT_EQ(p.affine_dim(), d);
  for (const Vec& v : p.vertices()) {
    for (const auto& hs : p.halfspaces()) {
      EXPECT_LE(hs.a.dot(v), hs.b + 1e-7);
    }
  }
  const Vec c = p.vertex_centroid();
  for (const auto& hs : p.halfspaces()) {
    EXPECT_LT(hs.a.dot(c), hs.b - 1e-12);
  }
}

TEST_P(HullProperty, MonotoneUnderPointAddition) {
  // Adding points can only grow the hull.
  const std::size_t d = GetParam();
  Rng rng(500 + d);
  auto pts = cloud(rng, 10, d);
  const auto small = Polytope::from_points(pts);
  const auto extra = cloud(rng, 6, d, -1.5, 1.5);
  pts.insert(pts.end(), extra.begin(), extra.end());
  const auto big = Polytope::from_points(pts);
  EXPECT_TRUE(big.contains(small, 1e-7));
  EXPECT_GE(big.measure(), small.measure() - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Dims, HullProperty, ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------
// Function L (Definition 2) properties.
// ---------------------------------------------------------------------

class LProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LProperty, SupportFunctionIsWeightedSum) {
  // The support function of a weighted Minkowski sum is the weighted sum of
  // support functions — the defining identity of L.
  const std::size_t d = GetParam();
  Rng rng(600 + d);
  std::vector<Polytope> polys;
  for (int k = 0; k < 3; ++k) {
    polys.push_back(Polytope::from_points(cloud(rng, 8, d)));
  }
  const std::vector<double> w = {0.5, 0.3, 0.2};
  const auto l = linear_combination(polys, w);
  for (int t = 0; t < 20; ++t) {
    Vec dir(d);
    for (std::size_t c = 0; c < d; ++c) dir[c] = rng.normal();
    double expect = 0.0;
    for (std::size_t i = 0; i < polys.size(); ++i) {
      expect += w[i] * dir.dot(polys[i].support(dir));
    }
    EXPECT_NEAR(dir.dot(l.support(dir)), expect, 1e-6) << "d=" << d;
  }
}

TEST_P(LProperty, FoldingOrderIrrelevant) {
  // L([A,B,C]; w) must equal L([L([A,B]; w'), C]; ...) — pairwise folding
  // in any order gives the same polytope (Minkowski sum associativity).
  const std::size_t d = GetParam();
  Rng rng(700 + d);
  std::vector<Polytope> polys;
  for (int k = 0; k < 3; ++k) {
    polys.push_back(Polytope::from_points(cloud(rng, 6, d)));
  }
  const auto once = linear_combination(polys, {0.25, 0.25, 0.5});
  // Fold (A, B) first with renormalized weights, then combine with C.
  const auto ab = linear_combination({polys[0], polys[1]}, {0.5, 0.5});
  const auto two_step = linear_combination({ab, polys[2]}, {0.5, 0.5});
  EXPECT_LT(hausdorff(once, two_step), 1e-6) << "d=" << d;
}

TEST_P(LProperty, ValidityLemma5) {
  // If all operands are inside a region, L is inside that region.
  const std::size_t d = GetParam();
  Rng rng(800 + d);
  const auto region = Polytope::from_points(cloud(rng, 12 + 4 * d, d, -2, 2));
  std::vector<Polytope> polys;
  for (int k = 0; k < 3; ++k) {
    // Sample operand vertices from inside the region via convex combos.
    std::vector<Vec> pts;
    for (int i = 0; i < 5; ++i) {
      Vec x(d, 0.0);
      double wsum = 0.0;
      std::vector<double> w(region.vertices().size());
      for (auto& wi : w) {
        wi = rng.uniform(0, 1);
        wsum += wi;
      }
      for (std::size_t j = 0; j < region.vertices().size(); ++j) {
        x += region.vertices()[j] * (w[j] / wsum);
      }
      pts.push_back(std::move(x));
    }
    polys.push_back(Polytope::from_points(pts));
  }
  const auto l = linear_combination(polys, {0.4, 0.35, 0.25});
  EXPECT_TRUE(region.contains(l, 1e-6)) << "d=" << d;
}

INSTANTIATE_TEST_SUITE_P(Dims, LProperty, ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------
// Hausdorff distance metric properties.
// ---------------------------------------------------------------------

class HausdorffProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HausdorffProperty, MetricAxioms) {
  const std::size_t d = GetParam();
  Rng rng(900 + d);
  for (int trial = 0; trial < 6; ++trial) {
    const auto a = Polytope::from_points(cloud(rng, 8, d));
    const auto b = Polytope::from_points(cloud(rng, 8, d));
    const auto c = Polytope::from_points(cloud(rng, 8, d));
    const double ab = hausdorff(a, b);
    EXPECT_GE(ab, 0.0);
    EXPECT_NEAR(hausdorff(a, a), 0.0, 1e-9);
    EXPECT_NEAR(ab, hausdorff(b, a), 1e-7);
    EXPECT_LE(ab, hausdorff(a, c) + hausdorff(c, b) + 1e-6);
  }
}

TEST_P(HausdorffProperty, TranslationMatchesShift) {
  const std::size_t d = GetParam();
  Rng rng(1000 + d);
  const auto a = Polytope::from_points(cloud(rng, 10, d));
  Vec shift(d, 0.0);
  shift[0] = 0.75;
  EXPECT_NEAR(hausdorff(a, a.translated(shift)), 0.75, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Dims, HausdorffProperty,
                         ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------
// Intersection properties across dimensions.
// ---------------------------------------------------------------------

class IntersectProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IntersectProperty, ContainedInEveryOperand) {
  const std::size_t d = GetParam();
  Rng rng(1100 + d);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<Polytope> polys;
    for (int k = 0; k < 3; ++k) {
      polys.push_back(Polytope::from_points(cloud(rng, 8 + 4 * d, d)));
    }
    const auto inter = intersect(polys);
    if (inter.is_empty()) continue;
    for (const auto& p : polys) {
      EXPECT_TRUE(p.contains(inter, 1e-5)) << "d=" << d << " trial=" << trial;
    }
  }
}

TEST_P(IntersectProperty, IdempotentAndCommutative) {
  const std::size_t d = GetParam();
  Rng rng(1200 + d);
  const auto a = Polytope::from_points(cloud(rng, 10, d));
  const auto b = Polytope::from_points(cloud(rng, 10, d));
  const auto ab = intersect({a, b});
  const auto ba = intersect({b, a});
  const auto aa = intersect({a, a});
  ASSERT_EQ(ab.is_empty(), ba.is_empty());
  if (!ab.is_empty()) {
    EXPECT_LT(hausdorff(ab, ba), 1e-5);
  }
  EXPECT_LT(hausdorff(aa, a), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Dims, IntersectProperty, ::testing::Values(2, 3));

// ---------------------------------------------------------------------
// Subset-hull intersection (line 5) properties.
// ---------------------------------------------------------------------

class SubsetHullProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SubsetHullProperty, TverbergNonEmptyAtBound) {
  // (d+1)f + 1 points with f = 1: non-empty in any dimension (Lemma 2).
  const std::size_t d = GetParam();
  Rng rng(1300 + d);
  for (int trial = 0; trial < 5; ++trial) {
    const auto pts = cloud(rng, (d + 1) * 1 + 1, d);
    EXPECT_FALSE(intersection_of_subset_hulls(pts, 1).is_empty())
        << "d=" << d << " trial=" << trial;
  }
}

TEST_P(SubsetHullProperty, WitnessPointSurvivesEverySubset) {
  const std::size_t d = GetParam();
  Rng rng(1400 + d);
  const auto pts = cloud(rng, (d + 1) + 3, d);
  const auto core = intersection_of_subset_hulls(pts, 1);
  if (core.is_empty()) return;
  const Vec w = core.vertex_centroid();
  // w must lie in the hull of every (m-1)-subset.
  for (std::size_t drop = 0; drop < pts.size(); ++drop) {
    std::vector<Vec> sub;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (i != drop) sub.push_back(pts[i]);
    }
    EXPECT_TRUE(Polytope::from_points(sub).contains(w, 1e-5))
        << "d=" << d << " dropped " << drop;
  }
}

TEST_P(SubsetHullProperty, CoreInEverySubsetHullAndHoldsTverbergWitness) {
  // Checks Γ against the subset hulls themselves, not against a second
  // Γ kernel: every vertex lies in each (m-1)-subset hull, and the witness
  // of a 2-part Tverberg partition lies in Γ (Lemma 2: dropping one point
  // leaves one part whole, so the witness stays in every subset hull).
  const std::size_t d = GetParam();
  Rng rng(1450 + d);
  for (int trial = 0; trial < 3; ++trial) {
    auto pts = cloud(rng, d + 3, d);
    if (trial == 2) pts.push_back(pts.front());  // multiset input
    const Polytope core = intersection_of_subset_hulls(pts, 1);
    ASSERT_FALSE(core.is_empty()) << "d=" << d << " trial=" << trial;
    for (std::size_t drop = 0; drop < pts.size(); ++drop) {
      std::vector<Vec> sub;
      for (std::size_t i = 0; i < pts.size(); ++i) {
        if (i != drop) sub.push_back(pts[i]);
      }
      EXPECT_TRUE(Polytope::from_points(sub).contains(core, 1e-6))
          << "d=" << d << " trial=" << trial << " dropped " << drop;
    }
    const auto partition = tverberg_partition(pts, 2);
    ASSERT_TRUE(partition.has_value()) << "d=" << d << " trial=" << trial;
    EXPECT_TRUE(core.contains(partition->witness, 1e-6))
        << "d=" << d << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, SubsetHullProperty,
                         ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------
// Nearest-point (Wolfe) properties.
// ---------------------------------------------------------------------

class NearestProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NearestProperty, ProjectionIsOptimalAgainstVertexGrid) {
  // The returned distance must beat every convex combination we can build
  // from a coarse grid of vertex weights.
  const std::size_t d = GetParam();
  Rng rng(1500 + d);
  const auto pts = cloud(rng, 6, d);
  const Vec q(d, 1.7);
  const Vec near = nearest_point_in_hull(pts, q);
  const double dist = near.dist(q);
  for (int trial = 0; trial < 200; ++trial) {
    Vec x(d, 0.0);
    double wsum = 0.0;
    std::vector<double> w(pts.size());
    for (auto& wi : w) {
      wi = rng.uniform(0, 1);
      wsum += wi;
    }
    for (std::size_t i = 0; i < pts.size(); ++i) {
      x += pts[i] * (w[i] / wsum);
    }
    EXPECT_GE(x.dist(q), dist - 1e-6) << "d=" << d;
  }
}

TEST_P(NearestProperty, ProjectionNondecreasingAlongRay) {
  // Moving the query further along the same outward ray increases distance.
  const std::size_t d = GetParam();
  Rng rng(1600 + d);
  const auto pts = cloud(rng, 8, d);
  Vec dir(d, 1.0);
  dir *= 1.0 / dir.norm();
  double prev = -1.0;
  for (double t = 2.0; t <= 5.0; t += 0.5) {
    const Vec q = dir * t;
    const double dist = nearest_point_in_hull(pts, q).dist(q);
    EXPECT_GT(dist, prev);
    prev = dist;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, NearestProperty, ::testing::Values(2, 3, 5));

}  // namespace
}  // namespace chc::geo
