#include "geometry/polytope.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numbers>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace chc::geo {
namespace {

Polytope unit_square() {
  return Polytope::from_points({Vec{0, 0}, Vec{1, 0}, Vec{1, 1}, Vec{0, 1}});
}

TEST(Polytope, EmptyBehaviour) {
  const auto e = Polytope::empty(3);
  EXPECT_TRUE(e.is_empty());
  EXPECT_EQ(e.ambient_dim(), 3u);
  EXPECT_FALSE(e.contains(Vec{0, 0, 0}));
  EXPECT_THROW(e.vertex_centroid(), ContractViolation);
  EXPECT_THROW(e.measure(), ContractViolation);
  EXPECT_THROW(e.halfspaces(), ContractViolation);
}

TEST(Polytope, CopiesShareOneRepresentation) {
  const Polytope a = unit_square();
  const Polytope copied(a);
  Polytope assigned = Polytope::empty(2);
  assigned = a;
  EXPECT_EQ(&copied.vertices(), &a.vertices());
  EXPECT_EQ(&assigned.vertices(), &a.vertices());
  EXPECT_TRUE(same_vertices(copied, a));
  EXPECT_TRUE(same_vertices(assigned, a));
  // Built again, the same value is equal but not shared.
  const Polytope rebuilt = unit_square();
  EXPECT_NE(&rebuilt.vertices(), &a.vertices());
  EXPECT_TRUE(same_vertices(rebuilt, a));

  // Default-constructed and moved-from polytopes are empty in dimension 0.
  const Polytope fresh;
  EXPECT_TRUE(fresh.is_empty());
  EXPECT_EQ(fresh.ambient_dim(), 0u);
  Polytope source = a;
  const Polytope moved(std::move(source));
  EXPECT_EQ(&moved.vertices(), &a.vertices());
  EXPECT_TRUE(source.is_empty());
  EXPECT_EQ(source.ambient_dim(), 0u);
  Polytope assign_source = a;
  Polytope target;
  target = std::move(assign_source);
  EXPECT_EQ(&target.vertices(), &a.vertices());
  EXPECT_TRUE(assign_source.is_empty());
  EXPECT_EQ(assign_source.ambient_dim(), 0u);
}

TEST(Polytope, DeferredFacetsBuildOnceAcrossThreads) {
  // A walk-built polygon derives its facets on the first halfspaces()
  // call. Copies read on four threads at once must all see one build.
  constexpr int kThreads = 4;
  std::vector<Vec> walk;
  for (int i = 0; i < 48; ++i) {
    const double a = 2.0 * std::numbers::pi * i / 48.0;
    walk.push_back(Vec{std::cos(a), std::sin(a)});
  }
  const Polytope polygon = Polytope::from_walk2d(walk);
  const std::vector<Polytope> copies(kThreads, polygon);
  std::vector<const std::vector<Halfspace>*> seen(kThreads, nullptr);
  std::atomic<int> waiting{kThreads};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) {
      }
      seen[i] = &copies[i].halfspaces();
    });
  }
  for (std::thread& t : threads) t.join();

  const std::vector<Halfspace> eager = Polytope::from_points(walk).halfspaces();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(seen[i], seen[0]) << "thread " << i;  // one build, shared
  }
  ASSERT_EQ(seen[0]->size(), eager.size());
  for (std::size_t f = 0; f < eager.size(); ++f) {
    EXPECT_EQ((*seen[0])[f].a, eager[f].a) << "facet " << f;
    EXPECT_EQ((*seen[0])[f].b, eager[f].b) << "facet " << f;
  }
}

TEST(Polytope, SinglePoint) {
  const auto p = Polytope::from_points({Vec{1, 2, 3}});
  EXPECT_EQ(p.affine_dim(), 0u);
  EXPECT_EQ(p.vertices().size(), 1u);
  EXPECT_DOUBLE_EQ(p.measure(), 0.0);
  EXPECT_TRUE(p.contains(Vec{1, 2, 3}));
  EXPECT_FALSE(p.contains(Vec{1, 2, 3.1}));
  EXPECT_NEAR(p.distance(Vec{1, 2, 5}), 2.0, 1e-12);
}

TEST(Polytope, InteriorPointsDropped) {
  const auto p = Polytope::from_points(
      {Vec{0, 0}, Vec{1, 0}, Vec{1, 1}, Vec{0, 1}, Vec{0.3, 0.7}, Vec{0.5, 0.5}});
  EXPECT_EQ(p.vertices().size(), 4u);
  EXPECT_EQ(p.affine_dim(), 2u);
}

TEST(Polytope, MultisetDuplicatesMerged) {
  const auto p = Polytope::from_points(
      {Vec{0, 0}, Vec{0, 0}, Vec{1, 0}, Vec{1, 0}, Vec{0, 1}});
  EXPECT_EQ(p.vertices().size(), 3u);
}

TEST(Polytope, SegmentInAmbient3d) {
  const auto p = Polytope::from_points({Vec{0, 0, 0}, Vec{1, 1, 1},
                                        Vec{0.5, 0.5, 0.5}});
  EXPECT_EQ(p.affine_dim(), 1u);
  EXPECT_EQ(p.vertices().size(), 2u);
  EXPECT_NEAR(p.measure(), std::sqrt(3.0), 1e-9);
  EXPECT_DOUBLE_EQ(p.volume(), 0.0);
  EXPECT_TRUE(p.contains(Vec{0.25, 0.25, 0.25}, 1e-9));
  EXPECT_FALSE(p.contains(Vec{0.25, 0.25, 0.30}, 1e-3));
}

TEST(Polytope, TriangleInAmbient3d) {
  const auto p = Polytope::from_points(
      {Vec{0, 0, 1}, Vec{1, 0, 1}, Vec{0, 1, 1}, Vec{0.2, 0.2, 1}});
  EXPECT_EQ(p.affine_dim(), 2u);
  EXPECT_EQ(p.vertices().size(), 3u);
  EXPECT_NEAR(p.measure(), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(p.volume(), 0.0);
  EXPECT_TRUE(p.contains(Vec{0.2, 0.2, 1}, 1e-9));
  EXPECT_FALSE(p.contains(Vec{0.2, 0.2, 1.5}, 1e-3));
  EXPECT_NEAR(p.distance(Vec{0.2, 0.2, 2.0}), 1.0, 1e-9);
}

TEST(Polytope, HalfspacesSatisfiedByVerticesOnly) {
  Rng rng(51);
  std::vector<Vec> pts;
  for (int i = 0; i < 25; ++i) {
    pts.push_back(Vec{rng.uniform(-1, 1), rng.uniform(-1, 1)});
  }
  const auto p = Polytope::from_points(pts);
  // All original points satisfy the H-rep; a far point violates it.
  for (const Vec& q : pts) {
    for (const auto& h : p.halfspaces()) {
      EXPECT_LE(h.a.dot(q), h.b + 1e-8);
    }
  }
  bool violated = false;
  for (const auto& h : p.halfspaces()) {
    if (h.a.dot(Vec{10, 10}) > h.b + 1e-8) violated = true;
  }
  EXPECT_TRUE(violated);
}

TEST(Polytope, HalfspacesOfFlatIncludeEqualities) {
  const auto p = Polytope::from_points({Vec{0, 0, 1}, Vec{1, 0, 1}, Vec{0, 1, 1}});
  // z = 1 must be pinned: some halfspace pair forces it.
  double zmax = 1e100, zmin = -1e100;
  for (const auto& h : p.halfspaces()) {
    // For direction (0,0,1): upper bound h.b / component when a == +-e_z.
    if (std::fabs(h.a[0]) < 1e-9 && std::fabs(h.a[1]) < 1e-9) {
      if (h.a[2] > 0.5) zmax = std::min(zmax, h.b / h.a[2]);
      if (h.a[2] < -0.5) zmin = std::max(zmin, h.b / h.a[2]);
    }
  }
  EXPECT_NEAR(zmax, 1.0, 1e-9);
  EXPECT_NEAR(zmin, 1.0, 1e-9);
}

TEST(Polytope, NearestPointSquare) {
  const auto p = unit_square();
  EXPECT_TRUE(approx_eq(p.nearest_point(Vec{0.5, 0.5}), Vec{0.5, 0.5}, 1e-12));
  EXPECT_TRUE(approx_eq(p.nearest_point(Vec{2, 0.5}), Vec{1, 0.5}, 1e-12));
  EXPECT_TRUE(approx_eq(p.nearest_point(Vec{2, 2}), Vec{1, 1}, 1e-12));
  EXPECT_TRUE(approx_eq(p.nearest_point(Vec{-1, -1}), Vec{0, 0}, 1e-12));
}

TEST(Polytope, NearestPointCube3d) {
  std::vector<Vec> pts;
  for (int m = 0; m < 8; ++m) {
    pts.push_back(Vec{double(m & 1), double((m >> 1) & 1), double((m >> 2) & 1)});
  }
  const auto p = Polytope::from_points(pts);
  // Closed form for a box: clamp each coordinate.
  Rng rng(53);
  for (int i = 0; i < 40; ++i) {
    const Vec q{rng.uniform(-2, 3), rng.uniform(-2, 3), rng.uniform(-2, 3)};
    Vec expect(3);
    for (std::size_t c = 0; c < 3; ++c) expect[c] = std::clamp(q[c], 0.0, 1.0);
    EXPECT_NEAR(p.distance(q), expect.dist(q), 1e-6) << "query " << q;
  }
}

TEST(Polytope, SupportVertex) {
  const auto p = unit_square();
  EXPECT_TRUE(approx_eq(p.support(Vec{1, 1}), Vec{1, 1}, 1e-12));
  EXPECT_TRUE(approx_eq(p.support(Vec{-1, 0.1}), Vec{0, 1}, 1e-12));
}

TEST(Polytope, SupportRejectsWrongDimensionDirection) {
  const auto square = unit_square();
  EXPECT_THROW(square.support(Vec{1.0}), ContractViolation);
  EXPECT_THROW(square.support(Vec{1.0, 0.0, 0.0}), ContractViolation);
  const auto simplex = Polytope::from_points(
      {Vec{0, 0, 0}, Vec{1, 0, 0}, Vec{0, 1, 0}, Vec{0, 0, 1}});
  EXPECT_THROW(simplex.support(Vec{1.0}), ContractViolation);
  EXPECT_THROW(simplex.support(Vec{1.0, 0.0}), ContractViolation);
}

TEST(Polytope, CentroidAndBoundingBox) {
  const auto p = unit_square();
  EXPECT_TRUE(approx_eq(p.vertex_centroid(), Vec{0.5, 0.5}, 1e-12));
  const auto [lo, hi] = p.bounding_box();
  EXPECT_TRUE(approx_eq(lo, Vec{0, 0}, 1e-12));
  EXPECT_TRUE(approx_eq(hi, Vec{1, 1}, 1e-12));
}

TEST(Polytope, VolumeSquareCubeSimplex) {
  EXPECT_NEAR(unit_square().volume(), 1.0, 1e-9);

  std::vector<Vec> cube;
  for (int m = 0; m < 8; ++m) {
    cube.push_back(Vec{double(m & 1) * 2, double((m >> 1) & 1) * 2,
                       double((m >> 2) & 1) * 2});
  }
  EXPECT_NEAR(Polytope::from_points(cube).volume(), 8.0, 1e-8);

  // Standard 3-simplex: volume 1/6.
  const auto simplex = Polytope::from_points(
      {Vec{0, 0, 0}, Vec{1, 0, 0}, Vec{0, 1, 0}, Vec{0, 0, 1}});
  EXPECT_NEAR(simplex.volume(), 1.0 / 6.0, 1e-9);
}

TEST(Polytope, BoxFactory) {
  const auto b = Polytope::box(Vec{-1, -2}, Vec{1, 2});
  EXPECT_EQ(b.vertices().size(), 4u);
  EXPECT_NEAR(b.volume(), 8.0, 1e-9);
  EXPECT_THROW(Polytope::box(Vec{1}, Vec{0}), ContractViolation);
}

TEST(Polytope, TranslateAndScale) {
  const auto p = unit_square().translated(Vec{2, 3});
  EXPECT_TRUE(p.contains(Vec{2.5, 3.5}));
  EXPECT_FALSE(p.contains(Vec{0.5, 0.5}));
  const auto s = unit_square().scaled(2.0);
  EXPECT_NEAR(s.volume(), 4.0, 1e-9);
  const auto z = unit_square().scaled(0.0);
  EXPECT_EQ(z.vertices().size(), 1u);  // collapses to the origin
}

TEST(Polytope, ContainsPolytope) {
  const auto big = unit_square().scaled(3.0);
  const auto small = unit_square().translated(Vec{0.5, 0.5});
  EXPECT_TRUE(big.contains(small));
  EXPECT_FALSE(small.contains(big));
  EXPECT_TRUE(big.contains(Polytope::empty(2)));
  EXPECT_FALSE(Polytope::empty(2).contains(big));
}

TEST(Hausdorff, TranslatedSquares) {
  const auto a = unit_square();
  const auto b = unit_square().translated(Vec{0.5, 0});
  EXPECT_NEAR(hausdorff(a, b), 0.5, 1e-9);
  EXPECT_NEAR(hausdorff(a, a), 0.0, 1e-12);
}

TEST(Hausdorff, NestedPolytopes) {
  const auto outer = Polytope::box(Vec{-2, -2}, Vec{2, 2});
  const auto inner = Polytope::box(Vec{-1, -1}, Vec{1, 1});
  // Farthest point of outer from inner is a corner: distance sqrt(2).
  EXPECT_NEAR(hausdorff(outer, inner), std::sqrt(2.0), 1e-9);
}

TEST(Hausdorff, SymmetricAndTriangleInequality) {
  Rng rng(57);
  auto random_poly = [&]() {
    std::vector<Vec> pts;
    for (int i = 0; i < 8; ++i) {
      pts.push_back(Vec{rng.uniform(-1, 1), rng.uniform(-1, 1)});
    }
    return Polytope::from_points(pts);
  };
  for (int trial = 0; trial < 10; ++trial) {
    const auto a = random_poly(), b = random_poly(), c = random_poly();
    const double ab = hausdorff(a, b);
    EXPECT_NEAR(ab, hausdorff(b, a), 1e-9);
    EXPECT_LE(ab, hausdorff(a, c) + hausdorff(c, b) + 1e-9);
  }
}

TEST(Polytope, ApproxEqual) {
  const auto a = unit_square();
  EXPECT_TRUE(approx_equal(a, a.translated(Vec{1e-9, 0}), 1e-7));
  EXPECT_FALSE(approx_equal(a, a.translated(Vec{0.1, 0}), 1e-7));
  EXPECT_TRUE(approx_equal(Polytope::empty(2), Polytope::empty(2)));
  EXPECT_FALSE(approx_equal(a, Polytope::empty(2)));
}

TEST(Polytope, DegenerateClusterWithinTolerance) {
  // Points clustered within 1e-12 collapse to a single vertex.
  const auto p = Polytope::from_points(
      {Vec{1, 1}, Vec{1 + 1e-13, 1}, Vec{1, 1 - 1e-13}});
  EXPECT_EQ(p.affine_dim(), 0u);
}

}  // namespace
}  // namespace chc::geo
