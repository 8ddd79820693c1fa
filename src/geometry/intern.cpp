#include "geometry/intern.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "geometry/ops.hpp"

namespace chc::geo {
namespace {

/// Process-wide totals; plain atomics so the intern table and every
/// thread's combination and Γ memos account into one struct.
struct AtomicStats {
  std::atomic<std::uint64_t> intern_hits{0};
  std::atomic<std::uint64_t> intern_misses{0};
  std::atomic<std::uint64_t> intern_evictions{0};
  std::atomic<std::uint64_t> combo_hits{0};
  std::atomic<std::uint64_t> combo_misses{0};
  std::atomic<std::uint64_t> subset_hull_hits{0};
  std::atomic<std::uint64_t> subset_hull_misses{0};

  void reset() {
    intern_hits = 0;
    intern_misses = 0;
    intern_evictions = 0;
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

/// FNV-1a accumulator for the content and memo-key hashes.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(const Vec& v) {
    mix(std::uint64_t{v.dim()});
    for (double c : v) mix(c);
  }
};

/// FNV-1a over the polytope's exact content (dimension + vertex bits).
std::uint64_t content_hash(const Polytope& p) {
  Fnv f;
  f.mix(std::uint64_t{p.ambient_dim()});
  for (const Vec& v : p.vertices()) f.mix(v);
  return f.h;
}

/// The shared intern table: weak entries (the table never keeps a polytope
/// alive) in an LRU order capped at kInternTableCapacity — recently
/// interned values stay dedupable, old ones (and their control blocks) are
/// let go.
struct InternTable {
  using LruList = std::list<std::pair<std::uint64_t, const Polytope*>>;

  struct Entry {
    std::weak_ptr<const Polytope> wp;
    const Polytope* key = nullptr;  ///< identity for LRU bookkeeping only
    LruList::iterator lru;
  };

  std::mutex mu;
  std::unordered_map<std::uint64_t, std::vector<Entry>> table;
  LruList lru;  ///< front = eviction victim, back = most recent
  std::size_t entries = 0;

  /// Drops the table entry for (hash, key). Caller holds mu.
  void erase_entry(std::uint64_t hash, const Polytope* key) {
    auto it = table.find(hash);
    if (it == table.end()) return;
    auto& bucket = it->second;
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      if (bucket[i].key == key) {
        lru.erase(bucket[i].lru);
        bucket.erase(bucket.begin() + static_cast<std::ptrdiff_t>(i));
        --entries;
        break;
      }
    }
    if (bucket.empty()) table.erase(it);
  }

  /// Evicts LRU victims until the table is within its bound. Caller
  /// holds mu.
  void enforce_cap() {
    while (entries > kInternTableCapacity && !lru.empty()) {
      const auto [h, key] = lru.front();
      erase_entry(h, key);
      stats().intern_evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }
};

InternTable& intern_table() {
  static InternTable t;
  return t;
}

struct ComboKey {
  std::vector<PolytopeHandle> ops;  // sorted by pointer; keeps operands alive
  double rel_tol = 0.0;

  bool operator==(const ComboKey& o) const {
    if (rel_tol != o.rel_tol || ops.size() != o.ops.size()) return false;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].get() != o.ops[i].get()) return false;
    }
    return true;
  }
};

std::uint64_t combo_hash(const ComboKey& k) {
  Fnv f;
  f.mix(k.rel_tol);
  for (const auto& p : k.ops) {
    f.mix(std::uint64_t{reinterpret_cast<std::uintptr_t>(p.get())});
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
    PolytopeHandle value;  ///< null while the slot is unused
  };
  std::array<Entry, Capacity> slots;
  std::size_t next = 0;  ///< the oldest slot: the next insert overwrites it

  PolytopeHandle find(const Key& key, std::uint64_t h) const {
    for (const Entry& e : slots) {
      if (e.value != nullptr && e.hash == h && e.key == key) return e.value;
    }
    return nullptr;
  }

  void insert(Key key, std::uint64_t h, PolytopeHandle value) {
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

PolytopeHandle intern(Polytope p) {
  const std::uint64_t h = content_hash(p);
  InternTable& t = intern_table();
  std::lock_guard<std::mutex> lock(t.mu);
  auto& bucket = t.table[h];
  // Prune expired entries while scanning for a live match.
  PolytopeHandle found;
  const Polytope* found_key = nullptr;
  for (std::size_t i = 0; i < bucket.size();) {
    if (PolytopeHandle sp = bucket[i].wp.lock()) {
      if (found == nullptr && same_vertices(*sp, p)) {
        found = std::move(sp);
        found_key = bucket[i].key;
      }
      ++i;
    } else {
      t.lru.erase(bucket[i].lru);
      bucket.erase(bucket.begin() + static_cast<std::ptrdiff_t>(i));
      --t.entries;
    }
  }
  if (found != nullptr) {
    // Touch: the matched entry becomes most-recently-used.
    for (auto& e : bucket) {
      if (e.key == found_key) {
        t.lru.splice(t.lru.end(), t.lru, e.lru);
        break;
      }
    }
    stats().intern_hits.fetch_add(1, std::memory_order_relaxed);
    return found;
  }
  stats().intern_misses.fetch_add(1, std::memory_order_relaxed);
  auto sp = std::make_shared<const Polytope>(std::move(p));
  InternTable::Entry e;
  e.wp = sp;
  e.key = sp.get();
  e.lru = t.lru.insert(t.lru.end(), {h, sp.get()});
  bucket.push_back(std::move(e));
  ++t.entries;
  t.enforce_cap();
  return sp;
}

PolytopeHandle equal_weight_combination_interned(
    const std::vector<PolytopeHandle>& polys, double rel_tol) {
  CHC_CHECK(!polys.empty(), "L of zero polytopes");
  if (std::all_of(polys.begin(), polys.end(), [&](const PolytopeHandle& p) {
        return p.get() == polys[0].get();
      })) {
    return polys[0];  // L(K, ..., K) = K
  }
  ComboKey key;
  key.ops = polys;
  key.rel_tol = rel_tol;
  std::sort(key.ops.begin(), key.ops.end(),
            [](const PolytopeHandle& a, const PolytopeHandle& b) {
              return a.get() < b.get();
            });
  const std::uint64_t h = combo_hash(key);

  ComboMemo& memo = thread_memo();
  if (PolytopeHandle cached = memo.find(key, h)) {
    stats().combo_hits.fetch_add(1, std::memory_order_relaxed);
    return cached;
  }
  stats().combo_misses.fetch_add(1, std::memory_order_relaxed);

  std::vector<Polytope> ops;
  ops.reserve(polys.size());
  for (const auto& p : polys) ops.push_back(*p);
  PolytopeHandle result = intern(equal_weight_combination(ops, rel_tol));
  memo.insert(std::move(key), h, result);
  return result;
}

PolytopeHandle intersection_of_subset_hulls_interned(
    const std::vector<Vec>& points, std::size_t drop, double rel_tol) {
  SubsetHullKey key = subset_hull_key(points, drop, rel_tol);
  const std::uint64_t h = subset_hull_hash(key);

  SubsetHullMemo& memo = thread_subset_hull_memo();
  if (PolytopeHandle cached = memo.find(key, h)) {
    stats().subset_hull_hits.fetch_add(1, std::memory_order_relaxed);
    return cached;
  }
  stats().subset_hull_misses.fetch_add(1, std::memory_order_relaxed);
  PolytopeHandle result =
      intern(intersection_of_subset_hulls(points, drop, rel_tol));
  memo.insert(std::move(key), h, result);
  return result;
}

InternStats intern_stats() {
  const AtomicStats& s = stats();
  InternStats out;
  out.intern_hits = s.intern_hits.load(std::memory_order_relaxed);
  out.intern_misses = s.intern_misses.load(std::memory_order_relaxed);
  out.intern_evictions = s.intern_evictions.load(std::memory_order_relaxed);
  out.combo_hits = s.combo_hits.load(std::memory_order_relaxed);
  out.combo_misses = s.combo_misses.load(std::memory_order_relaxed);
  out.subset_hull_hits = s.subset_hull_hits.load(std::memory_order_relaxed);
  out.subset_hull_misses =
      s.subset_hull_misses.load(std::memory_order_relaxed);
  return out;
}

std::size_t intern_table_size() {
  InternTable& t = intern_table();
  std::lock_guard<std::mutex> lock(t.mu);
  return t.entries;
}

void clear_intern_caches() {
  InternTable& t = intern_table();
  {
    std::lock_guard<std::mutex> lock(t.mu);
    t.table.clear();
    t.lru.clear();
    t.entries = 0;
  }
  thread_memo().clear();
  thread_subset_hull_memo().clear();
  stats().reset();
}

}  // namespace chc::geo
