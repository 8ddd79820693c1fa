// Answers the algebra already gives, checked against the kernels that do
// not use them:
//  * L groups identical operands, λK ⊕ μK = (λ+μ)K, so k copies of K come
//    back as K itself and a multiset with repeats matches the ungrouped
//    pairwise oracle (linear_combination_pairwise);
//  * the d = 2 subset-hull intersection builds its result by from_walk2d,
//    bit-identical to from_points over the same vertex list;
//  * d_H(K, K) = 0 exactly, and d_H of distinct polytopes is unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "geometry/intern.hpp"
#include "geometry/ops.hpp"
#include "geometry/polytope.hpp"

namespace chc::geo {
namespace {

std::vector<Vec> cloud(Rng& rng, std::size_t m, std::size_t d) {
  std::vector<Vec> pts;
  pts.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    Vec p(d);
    for (std::size_t c = 0; c < d; ++c) p[c] = rng.uniform(-1.0, 1.0);
    pts.push_back(std::move(p));
  }
  return pts;
}

bool same_bits(const Vec& a, const Vec& b) {
  if (a.dim() != b.dim()) return false;
  for (std::size_t c = 0; c < a.dim(); ++c) {
    if (std::bit_cast<std::uint64_t>(a[c]) !=
        std::bit_cast<std::uint64_t>(b[c])) {
      return false;
    }
  }
  return true;
}

void expect_same_vertex_bits(const Polytope& got, const Polytope& want) {
  ASSERT_EQ(got.ambient_dim(), want.ambient_dim());
  ASSERT_EQ(got.vertices().size(), want.vertices().size());
  for (std::size_t i = 0; i < want.vertices().size(); ++i) {
    EXPECT_TRUE(same_bits(got.vertices()[i], want.vertices()[i]))
        << "vertex " << i << ": " << got.vertices()[i] << " vs "
        << want.vertices()[i];
  }
}

/// A point, a segment and a full-dimensional polytope in R^d.
std::vector<Polytope> shapes(std::size_t d, Rng& rng) {
  Vec a(d), b(d);
  for (std::size_t c = 0; c < d; ++c) {
    a[c] = rng.uniform(-1.0, 1.0);
    b[c] = rng.uniform(-1.0, 1.0);
  }
  return {Polytope::from_points({a}), Polytope::from_points({a, b}),
          Polytope::from_points(cloud(rng, 4 * d + 2, d))};
}

double scale_of(const std::vector<Polytope>& polys) {
  double s = 1.0;
  for (const Polytope& p : polys) {
    for (const Vec& v : p.vertices()) s = std::max(s, v.max_abs());
  }
  return s;
}

// ---------------------------------------------------------------------
// L groups identical operands.
// ---------------------------------------------------------------------

TEST(LGrouping, CopiesOfOneOperandReturnItBitForBit) {
  for (std::size_t d : {1u, 2u, 3u}) {
    Rng rng(17000 + d);
    for (const Polytope& k_op : shapes(d, rng)) {
      const PolytopeHandle handle = intern(k_op);
      for (std::size_t k = 1; k <= 8; ++k) {
        SCOPED_TRACE(::testing::Message()
                     << "d=" << d << " verts=" << k_op.vertices().size()
                     << " k=" << k);
        // Uneven weights summing to 1.
        std::vector<double> w(k);
        double sum = 0.0;
        for (double& x : w) sum += (x = rng.uniform(0.1, 1.0));
        for (double& x : w) x /= sum;
        const std::vector<Polytope> copies(k, k_op);
        expect_same_vertex_bits(linear_combination(copies, w), k_op);
        expect_same_vertex_bits(equal_weight_combination(copies), k_op);
        const std::vector<PolytopeHandle> handles(k, handle);
        EXPECT_EQ(equal_weight_combination_interned(handles).get(),
                  handle.get());
      }
    }
  }
}

TEST(LGrouping, ValueEqualCopiesGroupWithoutSharingAHandle) {
  // Distinct objects with one value: grouping is by value, not address.
  Rng rng(17100);
  const std::vector<Vec> pts = cloud(rng, 9, 3);
  const std::vector<Polytope> ops = {Polytope::from_points(pts),
                                     Polytope::from_points(pts),
                                     Polytope::from_points(pts)};
  expect_same_vertex_bits(equal_weight_combination(ops), ops[0]);
}

TEST(LGrouping, ZeroWeightOperandsAreDropped) {
  Rng rng(17200);
  for (std::size_t d : {1u, 2u, 3u}) {
    SCOPED_TRACE(d);
    const Polytope a = Polytope::from_points(cloud(rng, 3 * d + 1, d));
    const Polytope b = Polytope::from_points(cloud(rng, 3 * d + 1, d));
    expect_same_vertex_bits(linear_combination({b, a, b}, {0.0, 1.0, 0.0}), a);
  }
}

TEST(LGrouping, RepeatedOperandsMatchUngroupedPairwise) {
  for (std::size_t d : {2u, 3u}) {
    Rng rng(17300 + d);
    for (int trial = 0; trial < 12; ++trial) {
      SCOPED_TRACE(::testing::Message() << "d=" << d << " trial=" << trial);
      std::vector<Polytope> distinct;
      const int kinds = static_cast<int>(rng.uniform_int(1, 3));
      for (int i = 0; i < kinds; ++i) {
        distinct.push_back(Polytope::from_points(cloud(rng, 3 * d + 2, d)));
      }
      std::vector<Polytope> ops;
      std::vector<double> w;
      const int m = static_cast<int>(rng.uniform_int(2, 7));
      double sum = 0.0;
      for (int i = 0; i < m; ++i) {
        ops.push_back(distinct[static_cast<std::size_t>(
            rng.uniform_int(0, kinds - 1))]);
        w.push_back(rng.uniform(0.05, 1.0));
        sum += w.back();
      }
      for (double& x : w) x /= sum;
      const Polytope grouped = linear_combination(ops, w);
      const Polytope oracle = linear_combination_pairwise(ops, w);
      EXPECT_LE(hausdorff(grouped, oracle), 1e-9 * scale_of(ops));
    }
  }
}

TEST(LGrouping, InternedMemoEqualsKernelWithRepeats) {
  // The memo ≡ kernel contract (Intern.CombinationMemoizedAcrossOperandOrder)
  // with a repeated operand in the multiset.
  for (std::size_t d : {2u, 3u}) {
    SCOPED_TRACE(d);
    clear_intern_caches();
    Rng rng(17400 + d);
    const PolytopeHandle a = intern(Polytope::from_points(cloud(rng, 6, d)));
    const PolytopeHandle b = intern(Polytope::from_points(cloud(rng, 6, d)));
    const PolytopeHandle r = equal_weight_combination_interned({a, b, a});
    expect_same_vertex_bits(*r, equal_weight_combination({*a, *b, *a}));
    EXPECT_EQ(equal_weight_combination_interned({a, a, b}).get(), r.get());
  }
  clear_intern_caches();
}

// ---------------------------------------------------------------------
// The d = 2 subset-hull intersection is walk-built.
// ---------------------------------------------------------------------

/// Vertices, halfspaces, measure and affine dimension agree bit for bit.
void expect_same_polytope_bits(const Polytope& got, const Polytope& want) {
  expect_same_vertex_bits(got, want);
  ASSERT_EQ(got.is_empty(), want.is_empty());
  if (want.is_empty()) return;
  EXPECT_EQ(got.affine_dim(), want.affine_dim());
  const auto& hs = got.halfspaces();
  const auto& ws = want.halfspaces();
  ASSERT_EQ(hs.size(), ws.size());
  for (std::size_t i = 0; i < ws.size(); ++i) {
    EXPECT_TRUE(same_bits(hs[i].a, ws[i].a)) << "halfspace " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(hs[i].b),
              std::bit_cast<std::uint64_t>(ws[i].b))
        << "halfspace " << i;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.measure()),
            std::bit_cast<std::uint64_t>(want.measure()));
}

TEST(SlimGamma, RandomCloudsMatchFromPointsOfTheirVertices) {
  Rng rng(17500);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(trial);
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(5, 13));
    const std::size_t drop = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>((m - 1) / 4)));
    const Polytope gamma = intersection_of_subset_hulls(cloud(rng, m, 2), drop);
    ASSERT_FALSE(gamma.is_empty());
    ASSERT_EQ(gamma.affine_dim(), 2u);
    expect_same_polytope_bits(gamma, Polytope::from_points(gamma.vertices()));
  }
}

TEST(SlimGamma, WalkConstructionMatchesFromPointsOnClippedShapes) {
  // What the clip reduction can end with: a CCW convex polygon starting at
  // any vertex, possibly with a repeated vertex, or a collinear or
  // coincident list. from_walk2d must build from_points' exact polytope.
  Rng rng(17600);
  std::vector<std::vector<Vec>> lists;
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Vec> poly = Polytope::from_points(cloud(rng, 9, 2)).vertices();
    std::rotate(poly.begin(),
                poly.begin() + rng.uniform_int(
                                   0, static_cast<std::int64_t>(poly.size()) - 1),
                poly.end());
    if (trial % 3 == 0) poly.insert(poly.begin() + 1, poly[1]);
    lists.push_back(std::move(poly));
  }
  lists.push_back({Vec{-0.7, -1.15}, Vec{1.1, 2.45}});             // segment
  lists.push_back({Vec{-0.7, -1.15}, Vec{0.2, 0.65}, Vec{1.1, 2.45}});
  lists.push_back({Vec{0.4, -1.3}});                               // point
  lists.push_back({Vec{0.4, -1.3}, Vec{0.4, -1.3}, Vec{0.4, -1.3}});
  for (std::size_t i = 0; i < lists.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same_polytope_bits(Polytope::from_walk2d(lists[i]),
                              Polytope::from_points(lists[i]));
  }
}

TEST(SlimGamma, CollinearAndCoincidentViewsMatchTheReferenceKernel) {
  // Degenerate views leave a segment or a point, which the walk hands to
  // from_points: the result is the reference kernel's, bit for bit.
  std::vector<Vec> line;
  for (int i = 0; i < 7; ++i) {
    const double t = 0.3 * i - 0.7;
    line.push_back(Vec{t, 2.0 * t + 0.25});
  }
  std::vector<Vec> cluster(5, Vec{1.0, 1.0});
  cluster.push_back(Vec{-2.0, 3.0});
  const std::vector<std::pair<std::vector<Vec>, std::size_t>> views = {
      {line, 1}, {line, 2}, {std::vector<Vec>(6, Vec{0.4, -1.3}), 1},
      {cluster, 1}};
  for (std::size_t i = 0; i < views.size(); ++i) {
    SCOPED_TRACE(i);
    const auto& [pts, drop] = views[i];
    const Polytope gamma = intersection_of_subset_hulls(pts, drop);
    ASSERT_FALSE(gamma.is_empty());
    EXPECT_LT(gamma.affine_dim(), 2u);
    expect_same_polytope_bits(
        gamma, intersection_of_subset_hulls_reference(pts, drop));
  }
}

// ---------------------------------------------------------------------
// d_H(K, K) = 0.
// ---------------------------------------------------------------------

/// d_H by the nearest-point search alone (no identity shortcut).
double hausdorff_by_search(const Polytope& a, const Polytope& b) {
  double h = 0.0;
  for (const Vec& v : a.vertices()) h = std::max(h, b.distance(v));
  for (const Vec& v : b.vertices()) h = std::max(h, a.distance(v));
  return h;
}

TEST(HausdorffIdentity, CopyOfItselfIsExactlyZero) {
  Rng rng(17700);
  for (std::size_t d : {1u, 2u, 3u, 4u}) {
    for (const Polytope& k_op : shapes(d, rng)) {
      const Polytope copy = k_op;
      EXPECT_EQ(hausdorff(k_op, copy), 0.0) << "d=" << d;
      EXPECT_EQ(hausdorff(copy, k_op), 0.0) << "d=" << d;
    }
  }
}

TEST(HausdorffIdentity, DistinctPolytopesKeepTheirDistance) {
  Rng rng(17800);
  for (std::size_t d : {1u, 2u, 3u}) {
    for (int trial = 0; trial < 10; ++trial) {
      const Polytope a = Polytope::from_points(cloud(rng, 3 * d + 2, d));
      const Polytope b = Polytope::from_points(cloud(rng, 3 * d + 2, d));
      const double h = hausdorff(a, b);
      EXPECT_GT(h, 0.0);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(h),
                std::bit_cast<std::uint64_t>(hausdorff_by_search(a, b)))
          << "d=" << d << " trial=" << trial;
    }
  }
}

}  // namespace
}  // namespace chc::geo
