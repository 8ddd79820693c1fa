// Intern table bounding and the per-thread combination memo.
//
// The intern table is LRU-bounded at kInternTableCapacity so a long
// multi-instance run cannot grow it monotonically; these tests pin the
// bound, the LRU order and handle stability across eviction. The
// combination memo is one FIFO table of kComboMemoCapacity entries per
// thread; these tests pin that each thread misses on its own memo, that
// the memo is value-transparent across threads, and its bound.
#include "geometry/intern.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

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

TEST_F(InternTest, TableSizeIsBoundedUnderLongRuns) {
  constexpr std::size_t kValues = kInternTableCapacity + 200;
  std::vector<PolytopeHandle> live;  // keep every handle alive: worst case
  for (std::size_t i = 0; i < kValues; ++i) {
    live.push_back(intern(segment(static_cast<double>(i))));
    ASSERT_LE(intern_table_size(), kInternTableCapacity)
        << "after intern #" << i;
  }
  const InternStats s = intern_stats();
  EXPECT_EQ(s.intern_misses, kValues);
  EXPECT_EQ(s.intern_evictions, 200u);
  // Live handles are untouched by eviction.
  for (std::size_t i = 0; i < kValues; ++i) {
    EXPECT_EQ(live[i]->vertices()[0][0], static_cast<double>(i));
  }
}

TEST_F(InternTest, EvictionIsLeastRecentlyUsed) {
  const PolytopeHandle a = intern(segment(0.0));
  const PolytopeHandle b = intern(segment(1.0));
  // A table's worth of fillers, touching a after each: a stays recent, b
  // drifts to the LRU end and is the first victim. (A FIFO bound would
  // evict a as well.)
  std::vector<PolytopeHandle> fillers;
  for (std::size_t i = 0; i < kInternTableCapacity; ++i) {
    fillers.push_back(intern(segment(10.0 + static_cast<double>(i))));
    ASSERT_EQ(intern(segment(0.0)).get(), a.get()) << "after filler " << i;
  }
  // 4098 distinct values in a 4096-entry table: b and the oldest filler.
  EXPECT_EQ(intern_stats().intern_evictions, 2u);
  EXPECT_EQ(intern(segment(0.0)).get(), a.get());  // still canonical
  // b was evicted: re-interning its value mints a new canonical object.
  EXPECT_NE(intern(segment(1.0)).get(), b.get());
}

TEST_F(InternTest, ThreadLocalComboCacheIsUsedAndTransparent) {
  const std::vector<PolytopeHandle> ops = {intern(segment(0.0)),
                                           intern(segment(1.0))};
  const PolytopeHandle main_result = equal_weight_combination_interned(ops);

  // A second thread starts with an empty memo: the same operands miss
  // there once, then hit. Because operands are interned and main_result
  // is alive, the recomputed value re-interns onto the main thread's
  // object — which thread's memo served a call is invisible in results.
  const InternStats before = intern_stats();
  PolytopeHandle r1, r2;
  std::thread worker([&] {
    r1 = equal_weight_combination_interned(ops);
    r2 = equal_weight_combination_interned(ops);
  });
  worker.join();
  const InternStats after = intern_stats();
  EXPECT_EQ(after.combo_misses, before.combo_misses + 1);
  EXPECT_EQ(after.combo_hits, before.combo_hits + 1);
  EXPECT_EQ(r1.get(), main_result.get());
  EXPECT_EQ(r2.get(), main_result.get());

  // The worker's memo did not touch this thread's: still a hit here.
  EXPECT_EQ(equal_weight_combination_interned(ops).get(), main_result.get());
  EXPECT_EQ(intern_stats().combo_hits, after.combo_hits + 1);
}

TEST_F(InternTest, ComboCacheEvictionRecomputesIdenticalValue) {
  // kComboMemoCapacity + 1 distinct operand pairs.
  std::vector<std::vector<PolytopeHandle>> rounds;
  for (std::size_t i = 0; i <= kComboMemoCapacity; ++i) {
    const double lo = 2.0 * static_cast<double>(i);
    rounds.push_back({intern(segment(lo)), intern(segment(lo + 1.0))});
  }
  std::vector<PolytopeHandle> results;
  for (std::size_t i = 0; i < kComboMemoCapacity; ++i) {
    results.push_back(equal_weight_combination_interned(rounds[i]));
  }
  EXPECT_EQ(intern_stats().combo_misses, kComboMemoCapacity);

  // A full memo still holds the first combination (a hit does not reorder
  // the FIFO)...
  EXPECT_EQ(equal_weight_combination_interned(rounds[0]).get(),
            results[0].get());
  EXPECT_EQ(intern_stats().combo_hits, 1u);

  // ...until one more distinct combination evicts it: recomputing misses
  // and re-interns onto the same object.
  equal_weight_combination_interned(rounds[kComboMemoCapacity]);
  const PolytopeHandle again = equal_weight_combination_interned(rounds[0]);
  EXPECT_EQ(intern_stats().combo_misses, kComboMemoCapacity + 2);
  EXPECT_EQ(again.get(), results[0].get())
      << "recomputation re-interned a new value";
}

}  // namespace
}  // namespace chc::geo
