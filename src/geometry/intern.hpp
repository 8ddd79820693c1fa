// Polytope interning and memoized round combination.
//
// Algorithm CC broadcasts its round state to n-1 peers every round, and as
// processes converge their states become literally identical polytopes.
// Interning gives every distinct polytope value one immutable heap object
// behind a shared_ptr, so
//  * broadcast fan-out copies a pointer instead of deep-copying the vertex
//    and halfspace arrays n-1 times, and
//  * value identity becomes pointer identity, which makes the per-round
//    equal-weight combination memoizable: once two processes hold the same
//    message multiset (the common case from round 1 under full crash
//    fault-load, see E1), the second L(Y) is a cache hit.
//
// Handles are shared_ptr<const Polytope>: safe to pass across runtime
// threads (the pointee is immutable) and to stash in std::any payloads.
// The intern table is process-wide and mutex-guarded. It holds weak
// references only — dropping every handle frees the polytope — and keeps
// at most kInternTableCapacity entries, evicting the least-recently-interned
// value (live handles stay valid; the value merely stops being dedupable),
// so a long multi-instance run cannot grow the table monotonically.
//
// Memoized combinations live in one unlocked table per thread (the
// common::thread_arena() idiom): each svc shard and NodeRuntime thread has
// its own, FIFO-bounded at kComboMemoCapacity entries. The memo is
// semantically transparent — a hit returns exactly the polytope a fresh
// computation would intern — so which thread's memo served a call never
// changes results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "geometry/polytope.hpp"

namespace chc::geo {

using PolytopeHandle = std::shared_ptr<const Polytope>;

/// The intern table's LRU entry bound.
inline constexpr std::size_t kInternTableCapacity = 4096;

/// Entries in each thread's combination memo. Each entry pins its operand
/// handles and the combined output, so the memo's live footprint scales
/// with capacity × round size. It earns its keep by deduplicating repeats
/// of the SAME operand multiset — sibling processes and sibling instances
/// of a shard working the same round — a window of a few dozen entries; an
/// oversized memo retains long-dead rounds whose only effect is to evict
/// the round pipeline's working set from cache.
inline constexpr std::size_t kComboMemoCapacity = 64;

/// Returns the canonical shared handle for `p`'s exact value (ambient
/// dimension + bitwise-equal vertex list). Two interned polytopes are
/// value-equal iff their handles are pointer-equal. Thread-safe.
PolytopeHandle intern(Polytope p);

/// Equal-weight L (Definition 2 with weights 1/k) over interned operands,
/// memoized on the operand multiset: repeated calls on one thread with the
/// same handles (in any order) return the same interned result without
/// recomputing the Minkowski combination. A miss returns
/// intern(equal_weight_combination(...)). Thread-safe.
PolytopeHandle equal_weight_combination_interned(
    const std::vector<PolytopeHandle>& polys, double rel_tol = 1e-9);

/// Counters for tests and benchmarks (process-wide totals, every thread).
struct InternStats {
  std::uint64_t intern_hits = 0;    ///< intern() found an existing object
  std::uint64_t intern_misses = 0;  ///< intern() created a new object
  std::uint64_t intern_evictions = 0;  ///< LRU victims dropped from the table
  std::uint64_t combo_hits = 0;     ///< memoized L reused a cached result
  std::uint64_t combo_misses = 0;   ///< memoized L computed from scratch
  /// Always 0. They counted operand edge fans reused / rebuilt by a d = 2
  /// incremental combination path that no longer exists; perfbench still
  /// reports them.
  std::uint64_t combo_delta_hits = 0;
  std::uint64_t combo_delta_misses = 0;
};
InternStats intern_stats();

/// Number of values currently registered in the intern table (expired
/// entries are counted until pruned; never above kInternTableCapacity).
std::size_t intern_table_size();

/// Drops the intern table and the calling thread's combination memo (test
/// isolation; live handles stay valid — other threads' memos are left
/// alone) and resets the statistics counters.
void clear_intern_caches();

}  // namespace chc::geo
