// Per-thread memos of the two computations Algorithm CC repeats.
//
// Processes that end round 0 with one view compute one Γ(X_i) (line 5),
// and processes holding one message multiset compute one L (line 14). Each
// computation has a memo: one unlocked table per thread (each svc shard
// and NodeRuntime thread has its own), FIFO-bounded. The L memo keys on
// the operands' shared representations (geo::Polytope copies share one,
// so a round message and its sender's state are one key); the Γ memo keys
// on the exact view bits. Both are semantically transparent — a hit
// returns the polytope the missed call computed — so which thread's memo
// served a call never changes results.
//
// The header path and three of its names (InternStats, intern_stats,
// clear_intern_caches) are kept only because perfbench/ includes them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/polytope.hpp"

namespace chc::geo {

/// Entries in each thread's combination memo. Each entry pins its operands
/// and the combined output, so the memo's live footprint scales with
/// capacity × round size. It earns its keep by deduplicating repeats of
/// the SAME operand multiset — sibling processes and sibling instances of
/// a shard working the same round — a window of a few dozen entries; an
/// oversized memo retains long-dead rounds whose only effect is to evict
/// the round pipeline's working set from cache.
inline constexpr std::size_t kComboMemoCapacity = 64;

/// Entries in each thread's Γ memo. One instance has at most n distinct
/// round-0 views, and a shard runs its instances one after another, so a
/// few dozen entries cover every view a thread is still working on.
inline constexpr std::size_t kSubsetHullMemoCapacity = 32;

/// Equal-weight L (Definition 2 with weights 1/k), memoized on the
/// operands' representations: repeated calls on one thread with copies of
/// the same polytopes (in any order) return a copy of the first result
/// without recomputing the Minkowski combination. A miss returns
/// equal_weight_combination(...), as the memo's copy when the memo already
/// holds that value (same_vertices). When every operand has one value,
/// L(K, ..., K) = K and the first operand is returned, with no memo lookup.
Polytope equal_weight_combination_memoized(const std::vector<Polytope>& polys,
                                           double rel_tol = 1e-9);

/// intersection_of_subset_hulls (geometry/ops.hpp) memoized on the exact
/// point list (coordinate bits, in order), `drop` and `rel_tol`: a repeat
/// call on one thread returns a copy of the first result without
/// recomputing. An empty Γ comes back as the empty polytope.
Polytope intersection_of_subset_hulls_memoized(const std::vector<Vec>& points,
                                               std::size_t drop,
                                               double rel_tol = 1e-9);

/// Memo counters for tests and benchmarks (process-wide totals, every
/// thread).
struct InternStats {
  std::uint64_t combo_hits = 0;     ///< memoized L reused a cached result
  std::uint64_t combo_misses = 0;   ///< memoized L computed from scratch
  std::uint64_t subset_hull_hits = 0;    ///< memoized Γ reused a result
  std::uint64_t subset_hull_misses = 0;  ///< memoized Γ computed from scratch
  /// Always 0. They counted operand edge fans reused / rebuilt by a d = 2
  /// incremental combination path that no longer exists; perfbench still
  /// reports them.
  std::uint64_t combo_delta_hits = 0;
  std::uint64_t combo_delta_misses = 0;
};
InternStats intern_stats();

/// Clears the calling thread's combination and Γ memos (test isolation;
/// other threads' memos are left alone) and resets the counters.
void clear_intern_caches();

}  // namespace chc::geo
