// Quorum-replicated grow-only register array ("distributed shared memory").
//
// This is the substrate under the stable-vector primitive (paper §3, citing
// Attiya et al.'s renaming construction). Each process owns one write-once
// slot; every process holds a full replica of the slot array. Requires
// n >= 2f + 1 so that any two (n-f)-quorums intersect in a correct process.
//
// Client operations:
//   * write(v):  merge v into the local replica, broadcast, wait for n-f
//                replicas (self included) to acknowledge.
//   * collect(): gather replica arrays from n-f replicas and union them,
//                then WRITE BACK the union to n-f replicas before returning.
//
// The write-back is what makes repeated collects containment-friendly: if a
// collect C1 (by anyone) completed its write-back before a collect C2
// started its gather, C2's quorum intersects C1's store quorum, so
// C2's union ⊇ C1's union. StableVector builds on exactly this property.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "geometry/vec.hpp"
#include "sim/process.hpp"

namespace chc::dsm {

/// Message tags used by this layer (payload type in comments).
inline constexpr int kTagWrite = 100;       // WriteMsg
inline constexpr int kTagWriteAck = 101;    // AckMsg
inline constexpr int kTagGather = 102;      // GatherMsg
inline constexpr int kTagGatherReply = 103; // ViewMsg
inline constexpr int kTagStore = 104;       // ViewMsg
inline constexpr int kTagStoreAck = 105;    // AckMsg

/// One replica view: slot p holds process p's written value, if known.
using View = std::vector<std::optional<geo::Vec>>;

struct WriteMsg {
  sim::ProcessId origin;
  geo::Vec value;
};
struct AckMsg {
  std::uint64_t op;
};
struct GatherMsg {
  std::uint64_t op;
};
struct ViewMsg {
  std::uint64_t op;
  View view;
};

/// Number of slots known in a view.
std::size_t view_count(const View& v);

/// Presence-mask equality (values are single-writer write-once, so equal
/// masks imply equal views).
bool view_equal(const View& a, const View& b);

/// Per-process component implementing both the replica (server) role and
/// the client operations. Embed one in a sim::Process and forward messages
/// whose tag satisfies handles().
class GrowOnlyStore {
 public:
  using WriteDone = std::function<void(sim::Context&)>;
  using CollectDone = std::function<void(sim::Context&, const View&)>;

  GrowOnlyStore(std::size_t n, std::size_t f, sim::ProcessId self);

  static bool handles(int tag) {
    return tag >= kTagWrite && tag <= kTagStoreAck;
  }

  /// Starts a write of this process's own slot. One write per process
  /// (write-once semantics); `done` fires when n-f replicas hold it.
  void write(sim::Context& ctx, const geo::Vec& value, WriteDone done);

  /// Starts a collect (gather + union + write-back). `done` receives the
  /// union view. Multiple collects may be issued sequentially, not
  /// concurrently.
  void collect(sim::Context& ctx, CollectDone done);

  /// Dispatches a DSM-layer message (both server and client roles).
  void on_message(sim::Context& ctx, const sim::Message& msg);

 private:
  void merge_into_replica(const View& v);
  std::size_t quorum() const { return n_ - f_; }

  std::size_t n_, f_;
  sim::ProcessId self_;
  View slots_;

  // Client-side operation state (at most one write and one collect pending).
  std::uint64_t next_op_ = 1;

  std::uint64_t write_op_ = 0;
  std::size_t write_acks_ = 0;
  WriteDone write_done_;

  enum class CollectPhase { kIdle, kGather, kStore };
  CollectPhase collect_phase_ = CollectPhase::kIdle;
  std::uint64_t collect_op_ = 0;
  std::size_t collect_replies_ = 0;
  View collect_union_;
  CollectDone collect_done_;
};

}  // namespace chc::dsm
