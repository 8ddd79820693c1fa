#include "geometry/intern.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <functional>
#include <optional>
#include <utility>

#include "common/check.hpp"
#include "geometry/ops.hpp"

namespace chc::geo {
namespace {

/// Process-wide totals; plain atomics so every thread's combination and Γ
/// memos account into one struct.
struct AtomicStats {
  std::atomic<std::uint64_t> combo_hits{0};
  std::atomic<std::uint64_t> combo_misses{0};
  std::atomic<std::uint64_t> subset_hull_hits{0};
  std::atomic<std::uint64_t> subset_hull_misses{0};

  void reset() {
    combo_hits = 0;
    combo_misses = 0;
    subset_hull_hits = 0;
    subset_hull_misses = 0;
  }
};

AtomicStats& stats() {
  static AtomicStats s;
  return s;
}

/// FNV-1a accumulator for the memo-key hashes.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
};

/// The address of a polytope's vertex list names its representation: every
/// copy of one polytope returns the same list.
const void* rep_id(const Polytope& p) { return &p.vertices(); }

struct ComboKey {
  std::vector<Polytope> ops;  // sorted by rep_id; keeps the reps alive
  double rel_tol = 0.0;

  bool operator==(const ComboKey& o) const {
    if (rel_tol != o.rel_tol || ops.size() != o.ops.size()) return false;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (rep_id(ops[i]) != rep_id(o.ops[i])) return false;
    }
    return true;
  }
};

std::uint64_t combo_hash(const ComboKey& k) {
  Fnv f;
  f.mix(std::bit_cast<std::uint64_t>(k.rel_tol));
  for (const Polytope& p : k.ops) {
    f.mix(std::uint64_t{reinterpret_cast<std::uintptr_t>(rep_id(p))});
  }
  return f.h;
}

/// Γ's memo key: drop, rel_tol and the view's points (dimension, then
/// coordinates, in order) as raw bits — so a one-ulp change, or -0.0
/// against 0.0, is a different key.
using SubsetHullKey = std::vector<std::uint64_t>;

SubsetHullKey subset_hull_key(const std::vector<Vec>& points, std::size_t drop,
                              double rel_tol) {
  SubsetHullKey k = {drop, std::bit_cast<std::uint64_t>(rel_tol)};
  for (const Vec& p : points) {
    k.push_back(p.dim());
    for (double c : p) k.push_back(std::bit_cast<std::uint64_t>(c));
  }
  return k;
}

std::uint64_t subset_hull_hash(const SubsetHullKey& k) {
  Fnv f;
  for (std::uint64_t w : k) f.mix(w);
  return f.h;
}

/// One thread's memo: a ring of Capacity entries, overwritten oldest-first
/// (FIFO eviction). Only its own thread touches it, so it takes no lock.
template <class Key, std::size_t Capacity>
struct FifoMemo {
  struct Entry {
    std::uint64_t hash = 0;
    Key key;
    std::optional<Polytope> value;  ///< unset while the slot is unused
  };
  std::array<Entry, Capacity> slots;
  std::size_t next = 0;  ///< the oldest slot: the next insert overwrites it

  const Polytope* find(const Key& key, std::uint64_t h) const {
    for (const Entry& e : slots) {
      if (e.value.has_value() && e.hash == h && e.key == key) return &*e.value;
    }
    return nullptr;
  }

  void insert(Key key, std::uint64_t h, Polytope value) {
    slots[next] = Entry{h, std::move(key), std::move(value)};
    next = (next + 1) % slots.size();
  }

  void clear() {
    slots.fill(Entry{});
    next = 0;
  }
};

using ComboMemo = FifoMemo<ComboKey, kComboMemoCapacity>;
using SubsetHullMemo = FifoMemo<SubsetHullKey, kSubsetHullMemoCapacity>;

ComboMemo& thread_memo() {
  thread_local ComboMemo memo;
  return memo;
}

SubsetHullMemo& thread_subset_hull_memo() {
  thread_local SubsetHullMemo memo;
  return memo;
}

}  // namespace

Polytope equal_weight_combination_memoized(const std::vector<Polytope>& polys,
                                           double rel_tol) {
  CHC_CHECK(!polys.empty(), "L of zero polytopes");
  if (std::all_of(polys.begin(), polys.end(), [&](const Polytope& p) {
        return same_vertices(p, polys[0]);
      })) {
    return polys[0];  // L(K, ..., K) = K
  }
  ComboKey key;
  key.ops = polys;
  key.rel_tol = rel_tol;
  std::sort(key.ops.begin(), key.ops.end(),
            [](const Polytope& a, const Polytope& b) {
              return std::less<const void*>{}(rep_id(a), rep_id(b));
            });
  const std::uint64_t h = combo_hash(key);

  ComboMemo& memo = thread_memo();
  if (const Polytope* cached = memo.find(key, h)) {
    stats().combo_hits.fetch_add(1, std::memory_order_relaxed);
    return *cached;
  }
  stats().combo_misses.fetch_add(1, std::memory_order_relaxed);
  Polytope result = equal_weight_combination(polys, rel_tol);
  // Converging rounds reach one value along different operand multisets.
  // Returning the memo's copy of that value keeps the next rounds' keys
  // equal, so they hit.
  for (const auto& e : memo.slots) {
    if (e.value.has_value() && same_vertices(*e.value, result)) {
      result = *e.value;
      break;
    }
  }
  memo.insert(std::move(key), h, result);
  return result;
}

Polytope intersection_of_subset_hulls_memoized(const std::vector<Vec>& points,
                                               std::size_t drop,
                                               double rel_tol) {
  SubsetHullKey key = subset_hull_key(points, drop, rel_tol);
  const std::uint64_t h = subset_hull_hash(key);

  SubsetHullMemo& memo = thread_subset_hull_memo();
  if (const Polytope* cached = memo.find(key, h)) {
    stats().subset_hull_hits.fetch_add(1, std::memory_order_relaxed);
    return *cached;
  }
  stats().subset_hull_misses.fetch_add(1, std::memory_order_relaxed);
  Polytope result = intersection_of_subset_hulls(points, drop, rel_tol);
  memo.insert(std::move(key), h, result);
  return result;
}

InternStats intern_stats() {
  const AtomicStats& s = stats();
  InternStats out;
  out.combo_hits = s.combo_hits.load(std::memory_order_relaxed);
  out.combo_misses = s.combo_misses.load(std::memory_order_relaxed);
  out.subset_hull_hits = s.subset_hull_hits.load(std::memory_order_relaxed);
  out.subset_hull_misses =
      s.subset_hull_misses.load(std::memory_order_relaxed);
  return out;
}

void clear_intern_caches() {
  thread_memo().clear();
  thread_subset_hull_memo().clear();
  stats().reset();
}

}  // namespace chc::geo
