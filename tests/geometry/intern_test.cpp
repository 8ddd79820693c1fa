// The per-thread combination and Γ memos.
//
// The combination memo is one FIFO table of kComboMemoCapacity entries per
// thread, keyed on the operands' representations; these tests pin that
// each thread misses on its own memo, that the memo is value-transparent
// across threads, its bound, and that a miss on a value the memo holds
// returns the memo's copy. The Γ memo
// (intersection_of_subset_hulls_memoized) is the same idiom keyed on the
// exact point list; these tests pin that it is the raw kernel bit for bit,
// that exact repeats hit and one-ulp changes miss, and that
// clear_intern_caches() empties it.
#include "geometry/intern.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "geometry/ops.hpp"
#include "geometry/polytope.hpp"
#include "geometry/vec.hpp"

namespace chc::geo {
namespace {

/// A distinct d=1 segment per index.
Polytope segment(double lo) {
  return Polytope::from_points({Vec{lo}, Vec{lo + 0.5}});
}

class InternTest : public ::testing::Test {
 protected:
  void SetUp() override { clear_intern_caches(); }
  void TearDown() override { clear_intern_caches(); }
};

TEST_F(InternTest, ThreadLocalComboCacheIsUsedAndTransparent) {
  const std::vector<Polytope> ops = {segment(0.0), segment(1.0)};
  const Polytope main_result = equal_weight_combination_memoized(ops);

  // A second thread starts with an empty memo: the same operands miss
  // there once, then hit. The miss computes the value the main thread's
  // memo holds, so which thread's memo served a call is invisible in
  // results.
  const InternStats before = intern_stats();
  Polytope r1, r2;
  std::thread worker([&] {
    r1 = equal_weight_combination_memoized(ops);
    r2 = equal_weight_combination_memoized(ops);
  });
  worker.join();
  const InternStats after = intern_stats();
  EXPECT_EQ(after.combo_misses, before.combo_misses + 1);
  EXPECT_EQ(after.combo_hits, before.combo_hits + 1);
  EXPECT_TRUE(same_vertices(r1, main_result));
  EXPECT_NE(&r1.vertices(), &main_result.vertices());  // computed again
  EXPECT_EQ(&r2.vertices(), &r1.vertices());           // the worker's hit

  // The worker's memo did not touch this thread's: still a hit here.
  EXPECT_EQ(&equal_weight_combination_memoized(ops).vertices(),
            &main_result.vertices());
  EXPECT_EQ(intern_stats().combo_hits, after.combo_hits + 1);
}

TEST_F(InternTest, ComboCacheEvictionRecomputesIdenticalValue) {
  // kComboMemoCapacity + 1 distinct operand pairs.
  std::vector<std::vector<Polytope>> rounds;
  for (std::size_t i = 0; i <= kComboMemoCapacity; ++i) {
    const double lo = 2.0 * static_cast<double>(i);
    rounds.push_back({segment(lo), segment(lo + 1.0)});
  }
  std::vector<Polytope> results;
  for (std::size_t i = 0; i < kComboMemoCapacity; ++i) {
    results.push_back(equal_weight_combination_memoized(rounds[i]));
  }
  EXPECT_EQ(intern_stats().combo_misses, kComboMemoCapacity);

  // A full memo still holds the first combination (a hit does not reorder
  // the FIFO)...
  EXPECT_EQ(&equal_weight_combination_memoized(rounds[0]).vertices(),
            &results[0].vertices());
  EXPECT_EQ(intern_stats().combo_hits, 1u);

  // ...until one more distinct combination evicts it: recomputing misses
  // and yields the same value.
  equal_weight_combination_memoized(rounds[kComboMemoCapacity]);
  const Polytope again = equal_weight_combination_memoized(rounds[0]);
  EXPECT_EQ(intern_stats().combo_misses, kComboMemoCapacity + 2);
  EXPECT_TRUE(same_vertices(again, results[0]))
      << "recomputation produced another value";
}

TEST_F(InternTest, ComboMissReturnsTheMemosCopyOfAHeldValue) {
  // Two operand multisets with one combination, [1, 2]: the second call
  // misses and returns the memo's copy of the first result, so a next
  // round over either result is one key.
  const auto seg = [](double lo, double hi) {
    return Polytope::from_points({Vec{lo}, Vec{hi}});
  };
  const Polytope a =
      equal_weight_combination_memoized({seg(0.0, 1.0), seg(2.0, 3.0)});
  const Polytope b =
      equal_weight_combination_memoized({seg(0.5, 1.5), seg(1.5, 2.5)});
  EXPECT_EQ(intern_stats().combo_misses, 2u);
  EXPECT_EQ(&b.vertices(), &a.vertices());

  const Polytope c = segment(7.0);
  const Polytope next_a = equal_weight_combination_memoized({a, c});
  const Polytope next_b = equal_weight_combination_memoized({c, b});
  EXPECT_EQ(intern_stats().combo_hits, 1u);
  EXPECT_EQ(&next_b.vertices(), &next_a.vertices());
}

/// m points uniform in [-1, 1]^d.
std::vector<Vec> cloud(Rng& rng, std::size_t m, std::size_t d) {
  std::vector<Vec> pts;
  for (std::size_t i = 0; i < m; ++i) {
    Vec p(d);
    for (std::size_t c = 0; c < d; ++c) p[c] = rng.uniform(-1.0, 1.0);
    pts.push_back(std::move(p));
  }
  return pts;
}

TEST_F(InternTest, SubsetHullMemoIsTheRawKernelBitForBit) {
  for (std::size_t d : {1u, 2u, 3u}) {
    SCOPED_TRACE(d);
    Rng rng(18000 + d);
    const std::vector<Vec> pts = cloud(rng, (d + 2) + 3, d);
    const Polytope g = intersection_of_subset_hulls_memoized(pts, 1);
    const Polytope raw = intersection_of_subset_hulls(pts, 1);
    ASSERT_EQ(g.vertices().size(), raw.vertices().size());
    for (std::size_t i = 0; i < raw.vertices().size(); ++i) {
      for (std::size_t c = 0; c < d; ++c) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(g.vertices()[i][c]),
                  std::bit_cast<std::uint64_t>(raw.vertices()[i][c]))
            << "vertex " << i << " coord " << c;
      }
    }
    EXPECT_TRUE(same_vertices(raw, g));
  }
}

TEST_F(InternTest, SubsetHullMemoHitsOnRepeatsAndMissesOnOneUlp) {
  Rng rng(18100);
  std::vector<Vec> pts = cloud(rng, 7, 2);
  const Polytope first = intersection_of_subset_hulls_memoized(pts, 1);
  EXPECT_EQ(intern_stats().subset_hull_misses, 1u);
  EXPECT_EQ(intern_stats().subset_hull_hits, 0u);

  EXPECT_EQ(&intersection_of_subset_hulls_memoized(pts, 1).vertices(),
            &first.vertices());  // a copy of the first result
  EXPECT_EQ(intern_stats().subset_hull_hits, 1u);

  // Key parts: drop and rel_tol are part of the key too.
  intersection_of_subset_hulls_memoized(pts, 2);
  intersection_of_subset_hulls_memoized(pts, 1, 1e-8);
  EXPECT_EQ(intern_stats().subset_hull_misses, 3u);

  // One ulp in one coordinate of one point is a different view.
  pts[3][1] = std::nextafter(pts[3][1], 2.0);
  intersection_of_subset_hulls_memoized(pts, 1);
  EXPECT_EQ(intern_stats().subset_hull_misses, 4u);
  EXPECT_EQ(intern_stats().subset_hull_hits, 1u);
}

TEST_F(InternTest, ClearEmptiesTheSubsetHullMemo) {
  Rng rng(18200);
  const std::vector<Vec> pts = cloud(rng, 6, 2);
  const Polytope kept = intersection_of_subset_hulls_memoized(pts, 1);
  clear_intern_caches();
  EXPECT_EQ(intern_stats().subset_hull_misses, 0u);
  intersection_of_subset_hulls_memoized(pts, 1);
  EXPECT_EQ(intern_stats().subset_hull_misses, 1u);
  EXPECT_EQ(intern_stats().subset_hull_hits, 0u);
}

TEST_F(InternTest, SubsetHullMemoReturnsEmptyGammaAsAHandle) {
  // Four points in general position, drop 1, d = 2: below (d+2)f + 1 the
  // subset hulls of a convex quadrilateral's triangles share no point.
  const std::vector<Vec> square = {Vec{0.0, 0.0}, Vec{1.0, 0.0},
                                   Vec{1.0, 1.0}, Vec{0.0, 1.0}};
  const Polytope raw = intersection_of_subset_hulls(square, 1);
  const Polytope g = intersection_of_subset_hulls_memoized(square, 1);
  EXPECT_EQ(g.is_empty(), raw.is_empty());
  EXPECT_EQ(g.ambient_dim(), 2u);
}

}  // namespace
}  // namespace chc::geo
