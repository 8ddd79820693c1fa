// Multi-slot Bracha reliable broadcast over opaque byte payloads — the
// substrate of the crash-to-Byzantine transformation the paper points to
// (§1, citing Coan [6] and Attiya–Welch [3]; requires n >= 3f + 1).
//
// The Byzantine convex consensus protocol (src/bcc) needs each process to
// reliably broadcast a *sequence* of values: its input (slot 0) and one
// report per round (slot r+1). This component runs one independent Bracha
// instance per (origin, slot) pair (INIT -> ECHO on first INIT -> READY on
// n-f ECHOs or f+1 READYs -> deliver on 2f+1 READYs), so its guarantees —
// validity, agreement, integrity, totality among correct processes despite
// up to f Byzantine ones — hold per slot.
//
// Payloads are raw bytes, compared exactly: two byte strings either match
// or they are different candidate values, which is all the supporter
// counting needs. The protocol layer above decodes delivered bytes and is
// responsible for rejecting semantically invalid content.
//
// Every inbound message is adversarial input and is validated before it
// touches state: wrong payload type, out-of-range origin or slot, oversized
// bytes and forged INITs are counted and dropped, never trusted and never
// fatal. A Byzantine peer can waste a bounded amount of memory (distinct
// candidate values per slot are capped) but cannot crash a correct process
// or split delivered values.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sim/process.hpp"

namespace chc::rbc {

/// Message tags (payload: SlotMsg).
inline constexpr int kTagSlotInit = 410;
inline constexpr int kTagSlotEcho = 411;
inline constexpr int kTagSlotReady = 412;

using Bytes = std::vector<std::uint8_t>;

struct SlotMsg {
  sim::ProcessId origin = 0;  ///< the broadcast's designated sender
  std::uint32_t slot = 0;     ///< which of the origin's broadcasts
  Bytes bytes;                ///< opaque payload
};

class SlotBroadcast {
 public:
  /// Called once per delivered (origin, slot, bytes) triple.
  using Deliver = std::function<void(sim::Context&, sim::ProcessId,
                                     std::uint32_t, const Bytes&)>;

  struct Options {
    /// Highest slot index any process may use (inclusive).
    std::uint32_t max_slot = 64;
    /// Hard bound on payload size; larger inbound bytes are dropped.
    std::size_t max_payload = 4096;
    /// Permits n < 3f + 1 so the resilience-boundary suite can run the
    /// protocol below its requirement and observe the documented stall.
    /// Production construction keeps the Bracha precondition fatal.
    bool allow_below_bound = false;
  };

  SlotBroadcast(std::size_t n, std::size_t f, sim::ProcessId self,
                Deliver deliver, Options options);
  // Not a default argument: GCC mis-parses `= {}` for a nested aggregate
  // with member initializers while the enclosing class is incomplete.
  SlotBroadcast(std::size_t n, std::size_t f, sim::ProcessId self,
                Deliver deliver)
      : SlotBroadcast(n, f, self, std::move(deliver), Options{}) {}

  static bool handles(int tag) {
    return tag >= kTagSlotInit && tag <= kTagSlotReady;
  }

  /// Broadcasts this process's value for `slot` (at most once per slot).
  void broadcast(sim::Context& ctx, std::uint32_t slot, Bytes bytes);

  void on_message(sim::Context& ctx, const sim::Message& msg);

  /// Inbound messages dropped by validation (malformed payload type,
  /// out-of-range origin/slot, oversized bytes, forged INIT, value-count
  /// cap). Purely diagnostic.
  std::uint64_t rejected() const { return rejected_; }

 private:
  using Key = std::pair<sim::ProcessId, std::uint32_t>;

  /// A candidate value's exact bytes. std::string orders them byte-wise,
  /// as Bytes does, so the first value to reach a quorum is the same.
  using Value = std::string;
  using Support = std::map<Value, std::set<sim::ProcessId>>;

  /// Per-(origin, slot) Bracha state; candidate values, each with its
  /// distinct-supporter set.
  struct Slot {
    bool echoed = false;
    bool readied = false;
    bool delivered = false;
    Support echoes;
    Support readies;
  };

  bool count_support(Support& by_value, Value value, sim::ProcessId supporter);
  void maybe_progress(sim::Context& ctx, const Key& key, Slot& slot);

  std::size_t n_, f_;
  sim::ProcessId self_;
  Deliver deliver_;
  Options options_;
  std::set<std::uint32_t> broadcast_slots_;
  std::map<Key, Slot> slots_;
  std::uint64_t rejected_ = 0;
};

}  // namespace chc::rbc
