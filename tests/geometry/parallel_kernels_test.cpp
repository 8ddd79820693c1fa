// Differential property tests for the geometry kernel engine (DESIGN.md
// §9): the subset-hull intersection and L must be vertex-set-identical (up
// to rel_tol) to the pre-engine reference kernels. Those are independent
// oracles only at d = 2 (geometry/ops.hpp), so the subset-hull comparison
// runs at d = 2 alone; at d != 2 the independent checks are
// SubsetHullProperty's subset-hull and Tverberg-witness containment and
// LProperty's support-function identity (property_test.cpp).
// Also here: the kernels start no thread, common::ThreadPool's own
// contract, and the memoized round combination.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <system_error>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "geometry/distance.hpp"
#include "geometry/intern.hpp"
#include "geometry/ops.hpp"
#include "geometry/polytope.hpp"

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

/// Every vertex of `a` is within `tol` of some vertex of `b` and vice
/// versa — the "vertex-set-identical up to rel_tol" acceptance relation.
void expect_vertex_sets_match(const Polytope& a, const Polytope& b,
                              double tol, const char* what) {
  ASSERT_EQ(a.is_empty(), b.is_empty()) << what;
  auto one_sided = [&](const Polytope& x, const Polytope& y) {
    for (const Vec& v : x.vertices()) {
      bool found = false;
      for (const Vec& w : y.vertices()) {
        if (approx_eq(v, w, tol)) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << what << ": unmatched vertex " << v;
    }
  };
  one_sided(a, b);
  one_sided(b, a);
}

// ---------------------------------------------------------------------
// ThreadPool basics.
// ---------------------------------------------------------------------

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  common::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, SerialPoolRunsInline) {
  common::ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::size_t sum = 0;
  pool.parallel_for(100, [&](std::size_t i) { sum += i; });  // no data race
  EXPECT_EQ(sum, 4950u);
}

TEST(ThreadPool, NestedParallelForFallsBackInline) {
  common::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(8, [&](std::size_t i) {
    pool.parallel_for(8, [&](std::size_t j) { hits[8 * i + j].fetch_add(1); });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, PropagatesJobExceptions) {
  common::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(32,
                                 [&](std::size_t i) {
                                   if (i == 17) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

// ---------------------------------------------------------------------
// Engine vs reference kernels, random clouds: the subset-hull clip
// reduction at d = 2, L at d in {1, 2, 3, 4}.
// ---------------------------------------------------------------------

TEST(KernelDifferential, SubsetHullsMatchReference) {
  const std::size_t d = 2;
  Rng rng(7000 + d);
  // m large enough for a non-empty Tverberg core: m >= (d+1)*drop + 1.
  for (const std::size_t drop : {std::size_t{1}, std::size_t{2}}) {
    const std::size_t m = (d + 1) * drop + 3;
    for (int trial = 0; trial < 6; ++trial) {
      auto pts = cloud(rng, m, d);
      if (trial % 2 == 1) pts.push_back(pts.front());  // multiset input
      const Polytope engine = intersection_of_subset_hulls(pts, drop);
      const Polytope ref = intersection_of_subset_hulls_reference(pts, drop);
      expect_vertex_sets_match(engine, ref, 1e-6, "subset hulls");
      if (!engine.is_empty()) {
        EXPECT_LT(hausdorff(engine, ref), 1e-6);
      }
    }
  }
}

class KernelDifferential : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelDifferential, LinearCombinationMatchesPairwise) {
  const std::size_t d = GetParam();
  Rng rng(8000 + d);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t k = 2 + static_cast<std::size_t>(trial);
    std::vector<Polytope> polys;
    std::vector<double> weights(k, 1.0 / static_cast<double>(k));
    for (std::size_t i = 0; i < k; ++i) {
      // Mix full-dimensional clouds with degenerate (point) operands.
      const std::size_t m = (i % 3 == 2) ? 1 : 5 + d;
      polys.push_back(Polytope::from_points(cloud(rng, m, d)));
    }
    const Polytope engine = linear_combination(polys, weights);
    const Polytope ref = linear_combination_pairwise(polys, weights);
    expect_vertex_sets_match(engine, ref, 1e-6, "linear combination");
    EXPECT_LT(hausdorff(engine, ref), 1e-6) << "d=" << d << " k=" << k;
  }
}

TEST_P(KernelDifferential, UnequalWeightsMatchPairwise) {
  const std::size_t d = GetParam();
  Rng rng(8500 + d);
  std::vector<Polytope> polys;
  std::vector<double> weights;
  double wsum = 0.0;
  for (std::size_t i = 0; i < 5; ++i) {
    polys.push_back(Polytope::from_points(cloud(rng, 6 + d, d)));
    weights.push_back(rng.uniform(0.1, 1.0));
    wsum += weights.back();
  }
  weights.push_back(0.0);  // a zero-weight operand must be skipped
  polys.push_back(Polytope::from_points(cloud(rng, 4, d)));
  for (double& w : weights) w /= wsum;
  const Polytope engine = linear_combination(polys, weights);
  const Polytope ref = linear_combination_pairwise(polys, weights);
  EXPECT_LT(hausdorff(engine, ref), 1e-6) << "d=" << d;
}

INSTANTIATE_TEST_SUITE_P(Dims, KernelDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u));

// ---------------------------------------------------------------------
// Parallelism lives at one level (service shards and cluster nodes): the
// kernels run on their caller's thread and start none of their own.
// ---------------------------------------------------------------------

/// Threads in this process, or 0 when /proc/self/task is not available.
std::size_t process_threads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return 0;
  return static_cast<std::size_t>(
      std::distance(it, std::filesystem::directory_iterator{}));
}

TEST(KernelThreads, GeometryRunsOnItsCallersThread) {
  const std::size_t before = process_threads();
  if (before == 0) GTEST_SKIP() << "/proc/self/task is not available";

  Rng rng(9000);
  const Polytope gamma = intersection_of_subset_hulls(cloud(rng, 8, 3), 1);
  ASSERT_FALSE(gamma.is_empty());
  std::vector<Polytope> polys;
  for (int i = 0; i < 3; ++i) {
    polys.push_back(Polytope::from_points(cloud(rng, 8, 3)));
  }
  const Polytope l = equal_weight_combination(polys);
  EXPECT_GT(hausdorff(gamma, l), 0.0);

  EXPECT_EQ(process_threads(), before);
}

// ---------------------------------------------------------------------
// The memoized round combination.
// ---------------------------------------------------------------------

TEST(Intern, CombinationMemoizedAcrossOperandOrder) {
  for (std::size_t d : {2u, 3u}) {
    SCOPED_TRACE(d);
    clear_intern_caches();
    Rng rng(10200 + d);
    std::vector<Polytope> ops;
    for (int i = 0; i < 3; ++i) {
      ops.push_back(Polytope::from_points(cloud(rng, 6, d)));
    }
    const Polytope r1 = equal_weight_combination_memoized(ops);
    const std::vector<Polytope> reversed(ops.rbegin(), ops.rend());
    const Polytope r2 = equal_weight_combination_memoized(reversed);
    EXPECT_EQ(&r1.vertices(), &r2.vertices())
        << "memo must be order-insensitive";
    const InternStats s = intern_stats();
    EXPECT_EQ(s.combo_misses, 1u);
    EXPECT_EQ(s.combo_hits, 1u);

    // And the memoized value is bit-for-bit the combination itself.
    const Polytope full = equal_weight_combination(ops);
    ASSERT_EQ(r1.vertices().size(), full.vertices().size());
    for (std::size_t i = 0; i < full.vertices().size(); ++i) {
      for (std::size_t c = 0; c < d; ++c) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(r1.vertices()[i][c]),
                  std::bit_cast<std::uint64_t>(full.vertices()[i][c]))
            << "vertex " << i << " coord " << c;
      }
    }
  }
}

}  // namespace
}  // namespace chc::geo
