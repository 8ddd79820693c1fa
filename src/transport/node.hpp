// NodeRuntime: one consensus node of a real cluster.
//
// Hosts many Algorithm CC instances over ONE Transport. Per instance the
// node runs the unchanged protocol stack — CCProcess over the stable
// vector over the quorum store, wrapped in net::ReliableChannel — against
// a sim::Context implementation whose send() serializes RelData/RelAck
// frames through transport/payload and whose clock maps wall time onto
// model time:
//
//   model_now = elapsed_wall_seconds / time_scale
//
// so the shim's model-unit timeouts (initial RTO 3.0) become
// milliseconds on a LAN at the default time_scale of 2 ms per unit. The
// transport is best-effort and a TCP reset silently eats in-flight frames,
// which is precisely the fair-lossy contract the shim's retransmission +
// cumulative acks + epochs were designed for; a node restarted with
// --epoch k+1 is recognized by its peers' shims (channel reset, window
// renumber + resend, give-up rescinded) exactly like a sim crash-recover.
//
// Tracing: each instance writes its own JSONL trace with env="live" and
// perspective=<node id> — one node can only witness its own protocol
// events, and the header says so, so tools/chc_check applies exactly the
// invariants a single-process view supports and core::replay refuses the
// file (live interleavings are not seed-replayable). Every line is
// emitted with one write(2) so a SIGKILL can tear at most the final line,
// which the checker tolerates for live traces. At the moment of decision
// the footer is written and the sink closed; the instance itself STAYS
// RESIDENT — its quorum-store server role and ack duplicate-suppression
// keep answering, which is what lets a crashed peer recover and finish.
//
// Threading: none. The owner calls step() in a loop; everything runs on
// that thread.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/process_cc.hpp"
#include "core/trace.hpp"
#include "net/policy.hpp"
#include "net/reliable_channel.hpp"
#include "obs/trace.hpp"
#include "transport/transport.hpp"

namespace chc::transport {

/// Reliable-shim limits tuned for a live cluster: the sim's RTO schedule
/// (net::kRto, kBackoff, kJitter) with a higher ceiling and a deeper retry
/// budget — a restarting peer can be gone for seconds of wall time, and a
/// live node should keep trying until the controller declares it dead
/// rather than give up first.
net::ReliableParams live_reliable_params();

/// TraceSink writing each record with a single write(2) call, so a killed
/// process can tear at most the trailing line of its trace. No userspace
/// buffering: the trace must survive SIGKILL up to the final event.
class AtomicLineSink final : public obs::TraceSink {
 public:
  /// Throws std::runtime_error when the file cannot be created.
  explicit AtomicLineSink(const std::string& path);
  ~AtomicLineSink() override;

  void write(const obs::TraceEvent& e) override;
  void write_line(const std::string& line) override;

  /// Further writes become no-ops (the instance outlives its trace: shim
  /// chatter after the footer must not corrupt the file).
  void close();

 private:
  std::mutex mu_;
  int fd_ = -1;
};

struct NodeConfig {
  NodeId id = 0;
  std::size_t n = 0;
  std::uint32_t epoch = 0;  ///< incarnation; bump on every restart
  /// Wall seconds per model time unit (default: RTO 3.0 -> 6 ms).
  double time_scale = 2e-3;
  /// Clock-rate multiplier (live nemesis skew knob): this node's model
  /// clock advances `clock_rate` model units per true unit of wall time,
  /// so at 1.5 its RTOs expire — and it retransmits — 1.5x faster than an
  /// unskewed peer's. Skew distorts timers and trace timestamps only; the
  /// FaultyTransport's phase schedule deliberately ignores it.
  double clock_rate = 1.0;
  net::ReliableParams rel = live_reliable_params();
  std::string trace_dir;  ///< empty: no trace files
};

/// Everything one SUBMIT carries: the instance's full configuration and
/// workload, identical on every node (the controller fans it out).
struct InstanceSpec {
  std::uint64_t id = 0;
  core::CCConfig cc;
  std::uint64_t seed = 0;
  std::vector<geo::Vec> inputs;         ///< all n inputs (trace header)
  std::vector<std::uint64_t> faulty;    ///< workload faulty set
};

class NodeRuntime {
 public:
  NodeRuntime(const NodeConfig& cfg, Transport& transport);
  ~NodeRuntime();

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  /// Starts instance spec.id (idempotent: re-submitting a known id is a
  /// no-op — the controller re-submits after restarting a node). Frames
  /// that arrived for the instance before it started are replayed into it.
  void start_instance(const InstanceSpec& spec);

  struct InstanceStatus {
    bool known = false;
    bool decided = false;
    bool failed = false;  ///< round 0 came up empty (resilience violated)
    std::size_t round = 0;  ///< rounds completed so far
    std::vector<geo::Vec> decision;  ///< vertices, when decided
  };
  InstanceStatus status(std::uint64_t id) const;

  /// One event-loop turn: drains local deliveries, pumps the transport
  /// (waiting up to timeout_ms when idle), fires due timers. Returns a
  /// count of work items processed (0 = idle turn).
  std::size_t step(int timeout_ms);

  /// Writes a non-quiescent footer for every still-undecided instance and
  /// closes all sinks (clean shutdown; a SIGKILL simply skips this).
  void shutdown();

  /// Aggregate reliable-shim counters across instances.
  net::ShimStats shim_stats() const;

  /// Declares the armed nemesis schedule: stamped (with the node's
  /// clock_rate) into the trace header of every instance started AFTER the
  /// call, so the checker sees the adversary the run actually faced.
  void set_nemesis_phases(std::vector<obs::HeaderPolicyPhase> phases);

  double model_now() const;

  /// Count of instances that have recorded a decision (STATUS reporting).
  std::size_t decided_count() const;
  std::size_t instance_count() const { return instances_.size(); }

 private:
  struct Instance;
  class Ctx;
  friend class Ctx;

  Instance& get(std::uint64_t id);
  void dispatch(Instance& inst, NodeId from, const WireFrame& frame);
  void deliver_local(std::uint64_t instance, sim::Message msg);
  std::size_t drain_local();
  std::size_t fire_due_timers();
  /// Decision / round-0-failure bookkeeping after any callback.
  void check_progress(Instance& inst);

  NodeConfig cfg_;
  Transport& transport_;
  double start_wall_;
  std::vector<obs::HeaderPolicyPhase> nemesis_phases_;
  std::map<std::uint64_t, std::unique_ptr<Instance>> instances_;
  /// Self-sends + frames for instances not yet started.
  std::deque<std::pair<std::uint64_t, sim::Message>> local_q_;
  std::map<std::uint64_t, std::deque<std::pair<NodeId, WireFrame>>> pending_;
  std::uint64_t pending_frames_ = 0;

  /// Cap on buffered frames for not-yet-started instances (the shim
  /// retransmits anything dropped here).
  static constexpr std::uint64_t kMaxPendingFrames = 4096;
};

}  // namespace chc::transport
