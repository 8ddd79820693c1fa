// Structured execution tracing: typed events, sinks, and the Tracer hook.
//
// Every layer of an execution — the discrete-event simulator (message
// send/recv/drop/dup, crashes), the reliable-channel shim
// (retransmissions) and Algorithm CC itself (round starts/completions with
// polytope snapshots, stable-vector delivery, decisions) — emits TraceEvents
// through one Tracer. The arXiv version of the paper makes the per-round
// state evolution explicit via the transition-matrix representation; the
// trace records exactly the data that representation needs (per-round
// MSG_i[t] sender sets and h_i[t] vertex sets), so a recorded execution is
// a machine-checkable artifact: tools/chc_check re-verifies the paper's
// invariants offline, and core::replay re-executes the run from the trace
// header and demands a bit-identical event stream.
//
// Zero overhead when disabled: a Tracer with no sink is a null-pointer test
// per emission site, and emit_with() takes a callable so event construction
// (vertex copies, sender sets) never happens unless a sink is attached.
//
// Thread safety: seq stamping is atomic and sinks lock internally, so a
// Tracer or sink may be shared across threads (svc shards, NodeRuntime
// stepping threads). Under the single-threaded simulator, seq order ==
// emission order == file order, which is what makes replay comparison
// line-for-line.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "geometry/vec.hpp"

namespace chc::obs {

/// Process identifier (mirrors sim::ProcessId without depending on sim).
using Pid = std::size_t;
inline constexpr Pid kNoPeer = static_cast<Pid>(-1);

enum class EventKind {
  kSend,         ///< message accepted into the network (p -> peer, tag)
  kRecv,         ///< message delivered to a live process (p <- peer, tag)
  kNetDrop,      ///< link-fault injector vanished a send
  kNetDup,       ///< injector enqueued aux extra copies
  kDropCrashed,  ///< delivery attempted to a crashed process
  kCrash,        ///< process p crashed
  kRetransmit,   ///< reliable-channel shim re-sent a frame (aux = retry #)
  kRoundStart,   ///< p entered round `round` and broadcast its state
  kRound0,       ///< round 0 complete: view = R_i, verts = h_i[0]
  kRound0Empty,  ///< h_i[0] empty (below the resilience bound); view = R_i
  kRound,        ///< round complete: senders = MSG set, verts = h_i[round]
  kDecide,       ///< p decided; verts = h_i[t_end], round = t_end
  kRecover,      ///< crashed process p restarted with fresh state
  kGiveUp,       ///< reliable shim abandoned its channel to `peer`
  kByzSend,      ///< Byzantine behavior mutated/suppressed a send (p -> peer,
                 ///< tag = original wire tag, aux = behavior kind)
};

std::string_view kind_name(EventKind k);
bool kind_from_name(std::string_view name, EventKind& out);

/// One trace record. Which optional fields are meaningful depends on kind
/// (see the enum comments); serialization omits fields a kind does not use.
struct TraceEvent {
  EventKind kind = EventKind::kSend;
  std::uint64_t seq = 0;  ///< stamped by the Tracer; unique per run
  double t = 0.0;         ///< simulation / model time of the event
  Pid p = 0;              ///< acting process
  Pid peer = kNoPeer;     ///< counterpart (send target, recv source)
  int tag = -1;           ///< wire tag for network events
  std::size_t round = 0;  ///< kRoundStart / kRound / kDecide
  std::uint64_t aux = 0;  ///< kNetDup: extra copies; kRetransmit: retry #
  std::vector<geo::Vec> verts;                   ///< polytope snapshot
  std::vector<std::pair<Pid, geo::Vec>> view;    ///< R_i tuples
  std::vector<Pid> senders;                      ///< MSG_i[round] origins
};

/// Deterministic single-line JSON form (no trailing newline).
std::string to_jsonl(const TraceEvent& e);
/// Parses one event line; false + *error on malformed input.
bool parse_event(std::string_view line, TraceEvent& out,
                 std::string* error = nullptr);

/// Per-channel policy override in a trace header (plain-value mirror of
/// net::NetworkPolicy overrides; obs cannot depend on net).
struct HeaderChannelOverride {
  std::uint64_t from = 0, to = 0;
  double drop = 0.0, dup = 0.0, reorder = 0.0;
  double rmin = 0.5, rmax = 3.0;
};

/// One phase of a time-varying network policy: from `at` onward (until the
/// next phase) the uniform link class + overrides below apply.
struct HeaderPolicyPhase {
  double at = 0.0;
  double drop = 0.0, dup = 0.0, reorder = 0.0;
  double rmin = 0.5, rmax = 3.0;
  std::vector<HeaderChannelOverride> overrides;
};

/// Explicit crash plan (serialized when the run overrides the seed-derived
/// crash style, e.g. nemesis scenarios).
struct HeaderCrashPlan {
  std::uint64_t p = 0;
  bool has_at = false;
  double at = 0.0;
  bool has_after = false;
  std::uint64_t after = 0;
  bool has_recover = false;
  double recover = 0.0;
};

/// Delay-storm window (plain-value mirror of sim::StormWindow).
struct HeaderStorm {
  double t0 = 0.0, t1 = 0.0;
  double factor = 1.0;
};

/// Trace header: everything needed to (a) re-execute the run (replay) and
/// (b) check its invariants offline without the workload generator. All
/// fields are plain values; core/replay maps the enums to/from ints.
/// Declared Byzantine behavior of one process (serialized so Byzantine runs
/// replay from the header alone; obs cannot depend on bcc, so the behavior
/// kind is a plain int mirror of bcc::BehaviorKind).
struct HeaderByz {
  std::uint64_t p = 0;
  int kind = 0;
  std::uint64_t param = 0;
};

struct TraceHeader {
  int version = 1;
  /// Which consensus protocol produced the trace: "cc" (the crash-fault
  /// Algorithm CC — the default, omitted from the serialized form) or
  /// "bcc" (Byzantine convex consensus). Checker and replay dispatch on it.
  std::string protocol = "cc";
  /// "sim" (deterministic, replayable) or "live" (a real cluster node;
  /// wall clock, NOT seed-replayable — the checker verifies safety
  /// invariants only).
  std::string env = "sim";
  /// Live traces are written per node: a node can only record its own
  /// protocol events, so `perspective` names the one process this trace
  /// covers and the checker restricts cross-process invariants to what a
  /// single-process view can support. -1 (the default, omitted from the
  /// serialized form) means the trace covers every process, as sim and
  /// merged cluster traces do.
  std::int64_t perspective = -1;

  // Algorithm CC configuration (core::CCConfig, effective values).
  std::uint64_t n = 0, f = 0, d = 1;
  double eps = 0.0;
  double input_magnitude = 1.0;  ///< effective max(U, mu) bound
  double rel_tol = 1e-9;
  bool round0_naive = false;        ///< Round0Policy::kNaiveCollect
  bool correct_inputs_model = false;  ///< FaultModel::kCrashCorrectInputs
  std::uint64_t t_end = 0;

  // Harness scheduling knobs (core enums as ints).
  int pattern = 0, crash_style = 0, delay = 0;
  std::uint64_t seed = 0;

  // Network policy + recovery shim (uniform link class).
  double drop = 0.0, dup = 0.0, reorder = 0.0;
  double reorder_delay_min = 0.5, reorder_delay_max = 3.0;
  bool reliable = false;
  double rto = 3.0, backoff = 2.0, rto_max = 20.0, jitter = 0.25;
  std::uint64_t max_retries = 15;
  std::uint64_t max_events = 50'000'000;

  /// Clock-rate multiplier of the recording node (live nemesis skew: this
  /// node's model clock ran `clock_rate` times faster than true wall time,
  /// so its timers genuinely misfire relative to its peers'). 1.0 — no
  /// skew — is omitted from the serialized form.
  double clock_rate = 1.0;

  // Time-varying adversary (nemesis scenarios); all empty for classic runs,
  // and omitted from the serialized form when empty (back-compat).
  std::vector<HeaderChannelOverride> overrides;  ///< static per-channel
  std::vector<HeaderPolicyPhase> phases;         ///< policy schedule
  std::vector<HeaderCrashPlan> crash_plans;      ///< explicit crash schedule
  std::vector<HeaderStorm> storms;               ///< delay-storm windows

  /// Byzantine behavior assignment (protocol == "bcc"; empty otherwise).
  std::vector<HeaderByz> byz;

  // Concrete workload (checker input; replay verifies it matches the seed).
  std::vector<std::uint64_t> faulty;
  std::vector<std::vector<double>> inputs;  ///< n rows of d coordinates
};

std::string to_jsonl(const TraceHeader& h);
bool parse_header(std::string_view line, TraceHeader& out,
                  std::string* error = nullptr);

/// Trailing summary record (optional — absent from truncated traces).
struct TraceFooter {
  bool quiescent = false;
  std::uint64_t decided = 0;  ///< processes that recorded a decision
};

std::string to_jsonl(const TraceFooter& f);
bool parse_footer(std::string_view line, TraceFooter& out,
                  std::string* error = nullptr);

/// Receives seq-stamped events. Implementations must be safe to call from
/// multiple threads.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void write(const TraceEvent& e) = 0;
  /// Raw pre-serialized line (header / footer records).
  virtual void write_line(const std::string& line) = 0;
};

/// Collects serialized lines (and the typed events) in memory — the sink
/// the replay verifier and the tests use.
class MemorySink final : public TraceSink {
 public:
  void write(const TraceEvent& e) override;
  void write_line(const std::string& line) override;

  std::vector<std::string> lines() const;
  std::vector<TraceEvent> events() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::string> lines_;
  std::vector<TraceEvent> events_;
};

/// Streams JSONL to a file.
class JsonlFileSink final : public TraceSink {
 public:
  explicit JsonlFileSink(const std::string& path);
  void write(const TraceEvent& e) override;
  void write_line(const std::string& line) override;
  void flush();

 private:
  std::mutex mu_;
  std::ofstream out_;
};

/// Reads a JSONL trace file into `lines`, skipping blank lines — the one
/// reader the checker and both replayers share. False when the file cannot
/// be opened.
bool read_jsonl(const std::string& path, std::vector<std::string>& lines);

/// The emission hook handed to runtimes and protocol layers. Default
/// constructed it is disabled and every call collapses to a pointer test.
class Tracer {
 public:
  Tracer() = default;
  explicit Tracer(TraceSink* sink) : sink_(sink) {}

  bool enabled() const { return sink_ != nullptr; }

  /// Stamps seq and forwards to the sink (no-op when disabled).
  void emit(TraceEvent e) {
    if (sink_ == nullptr) return;
    e.seq = seq_.fetch_add(1, std::memory_order_relaxed);
    sink_->write(e);
  }

  /// Lazily-built emission: `make()` (and any allocation it implies) only
  /// runs when a sink is attached.
  template <typename F>
  void emit_with(F&& make) {
    if (sink_ != nullptr) emit(make());
  }

  /// Writes a pre-serialized record (header / footer) without a seq stamp.
  void line(const std::string& l) {
    if (sink_ != nullptr) sink_->write_line(l);
  }

 private:
  TraceSink* sink_ = nullptr;
  std::atomic<std::uint64_t> seq_{0};
};

}  // namespace chc::obs
