// Fault-injecting transport decorator: the live half of the nemesis.
//
// FaultyTransport wraps any Transport (TcpTransport in the real cluster,
// LoopbackTransport in tests) and applies a net::PolicySchedule to every
// outbound frame — the same piecewise-constant drop/dup/reorder phases the
// simulator's FaultyLinkModel enforces, so one Scenario compiles to both
// environments. Faults are injected on the SEND side of each directed
// channel (self -> to): a dropped frame is silently discarded (send still
// returns true — real network loss is invisible to the sender), a
// duplicated frame goes out twice back-to-back, and a reordered frame is
// parked in a delay heap and released during poll() once its extra delay
// expires, letting later traffic overtake it. The reliable-channel shim
// above absorbs all of it, exactly as it absorbs the sim's faults.
//
// Phase timing is WALL-CLOCK mapped: the controller broadcasts one anchor
// (a realtime timestamp) and every node maps "now" to model time as
// (realtime - anchor) / time_scale. The mapping deliberately ignores the
// per-node clock_rate skew knob (node.hpp): skew distorts a node's timers,
// not the adversary's schedule, so a partition opens and heals at the same
// instant on every node regardless of how fast their clocks run.
//
// The decorator is passthrough (zero overhead beyond a branch) until
// set_schedule() arms it; clear_schedule() disarms and flushes nothing —
// parked frames still drain on their due times (the shim would retransmit
// them anyway, but releasing them is closer to a real healing network).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/policy.hpp"
#include "obs/trace.hpp"
#include "transport/transport.hpp"

namespace chc::transport {

class FaultyTransport final : public Transport {
 public:
  explicit FaultyTransport(Transport& inner) : inner_(inner), rng_(0) {}

  NodeId self() const override { return inner_.self(); }
  std::size_t n() const override { return inner_.n(); }
  bool send(NodeId to, const WireFrame& frame) override;
  std::size_t poll(int timeout_ms, const Handler& h) override;

  /// Arms the schedule. `anchor_realtime_sec` is a CLOCK_REALTIME instant
  /// (seconds) shared by every node of the run; model time at any wall
  /// instant t is max(0, (t - anchor) / time_scale). `seed` is forked by
  /// self() so each node draws an independent but reproducible fault
  /// stream.
  void set_schedule(net::PolicySchedule schedule, double anchor_realtime_sec,
                    std::uint64_t seed, double time_scale);

  /// Disarms fault injection (parked frames still drain on schedule).
  void clear_schedule() { armed_ = false; }

  bool armed() const { return armed_; }

  /// Model-time position of the armed schedule at this wall instant
  /// (0 when unarmed or before the anchor).
  double model_now() const;

  struct Stats {
    std::uint64_t passed = 0;           ///< frames forwarded unharmed
    std::uint64_t injected_drops = 0;   ///< frames silently discarded
    std::uint64_t injected_dups = 0;    ///< extra copies sent
    std::uint64_t injected_delays = 0;  ///< frames parked for reordering
    std::uint64_t released = 0;         ///< parked frames later sent
  };
  const Stats& stats() const { return stats_; }

  /// Frames currently parked in the delay heap (tests / STATUS).
  std::size_t parked() const { return held_.size(); }

 private:
  struct Held {
    double due_wall = 0.0;  ///< realtime seconds
    std::uint64_t seq = 0;  ///< admission order tie-break
    NodeId to = 0;
    WireFrame frame;
  };

  void release_due(double now_wall);
  double wall_now() const;

  Transport& inner_;
  bool armed_ = false;
  net::PolicySchedule schedule_;
  double anchor_ = 0.0;
  double time_scale_ = 1.0;
  Rng rng_;
  std::uint64_t next_seq_ = 0;
  std::vector<Held> held_;  ///< min-heap by (due_wall, seq)
  Stats stats_;
};

/// One-line token form of a nemesis arming command, carried by the NEMESIS
/// RPC verb from chc_cluster to every chc_node:
///
///   seed <u64> scale <f> anchor <f> phases <k>
///     { at <t> link <drop> <dup> <reorder> ovr <m>
///         { <from> <to> <drop> <dup> <reorder> }*m }*k
struct NemesisSpec {
  net::PolicySchedule schedule;
  std::uint64_t seed = 0;
  double anchor_realtime_sec = 0.0;
  double time_scale = 1.0;
};

std::string encode_nemesis_spec(const NemesisSpec& spec);

/// Parses the token form; nullopt on any malformed input.
std::optional<NemesisSpec> parse_nemesis_spec(const std::string& line);

/// Plain-value mirror of the schedule for trace headers (what the sim's
/// lossy harness records — a live run declares the same adversary).
std::vector<obs::HeaderPolicyPhase> to_header_phases(
    const net::PolicySchedule& schedule);

}  // namespace chc::transport
