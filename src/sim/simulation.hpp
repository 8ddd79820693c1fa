// Deterministic discrete-event simulator of the paper's system model:
// asynchronous complete graph, reliable FIFO exactly-once channels, crash
// faults. Everything is driven by one seeded Rng, so an execution is a pure
// function of (processes, delay model, crash schedule, seed).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/crash.hpp"
#include "sim/delay.hpp"
#include "sim/fault.hpp"
#include "sim/message.hpp"
#include "sim/process.hpp"

namespace chc::sim {

/// Aggregate statistics of a run (experiment E8 reports message counts).
/// `messages_sent` counts *accepted* sends (before fault injection), so
/// under an installed LinkFaultModel, delivered may fall short of sent
/// (drops) or exceed it (duplicates).
struct SimStats {
  std::uint64_t messages_sent = 0;       ///< accepted into the network
  std::uint64_t messages_delivered = 0;  ///< delivered to a live process
  std::uint64_t messages_dropped = 0;    ///< receiver crashed before delivery
  std::uint64_t sends_suppressed = 0;    ///< sender already crashed
  std::uint64_t timers_fired = 0;
  std::uint64_t events_processed = 0;
  Time end_time = 0.0;
  std::map<int, std::uint64_t> sent_by_tag;

  // Injected link faults (zero unless a LinkFaultModel is installed).
  std::uint64_t net_dropped = 0;     ///< sends the injector vanished
  std::uint64_t net_duplicated = 0;  ///< extra copies the injector enqueued
  std::uint64_t net_reordered = 0;   ///< sends exempted from the FIFO clamp
  std::map<int, std::uint64_t> dropped_by_tag;
  std::map<int, std::uint64_t> duplicated_by_tag;

  // Recovery-layer work, merged post-run by the lossy harness (the
  // simulator itself cannot tell a retransmission from a fresh send).
  std::uint64_t retransmits = 0;
  std::map<int, std::uint64_t> retransmit_by_tag;

  /// Crash-recover restarts performed (CrashPlan::recover_at).
  std::uint64_t recoveries = 0;

  bool operator==(const SimStats&) const = default;
};

struct RunResult {
  bool quiescent = false;  ///< event queue drained (vs. event-budget stop)
  SimStats stats;
};

class Simulation {
 public:
  /// Builds the replacement for a process restarting after a crash
  /// (CrashPlan::recover_at). `incarnation` counts restarts (1 for the
  /// first recovery); `retired` is the crashed instance, handed over so
  /// the harness can harvest its statistics before it is destroyed. The
  /// replacement starts from scratch: the simulator calls on_start on it
  /// at the recovery time (crash-recover with state loss).
  using ProcessFactory = std::function<std::unique_ptr<Process>(
      ProcessId p, std::size_t incarnation, std::unique_ptr<Process> retired)>;

  Simulation(std::size_t n, std::uint64_t seed,
             std::unique_ptr<DelayModel> delay, CrashSchedule crashes);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Registers the process with the next free id (call exactly n times
  /// before run()).
  void add_process(std::unique_ptr<Process> p);

  /// Installs a link-fault injector (call before run(); optional). With no
  /// model the network keeps the paper's reliable exactly-once FIFO
  /// semantics. The injector draws from a dedicated forked RNG stream, so
  /// installing it never perturbs delay/process streams.
  void set_fault_model(std::unique_ptr<LinkFaultModel> faults);

  /// Attaches a structured-event tracer (optional; call before run()). The
  /// simulator emits send/recv/drop/dup/crash events through it; a default
  /// (disabled) tracer costs one pointer test per would-be event.
  void set_tracer(obs::Tracer* tracer);

  /// Attaches a metrics registry (optional; call before run()). Records the
  /// delivery-latency histogram and message counters.
  void set_metrics(obs::Registry* metrics);

  /// Installs the rebuild hook for crash-recover plans (call before run();
  /// required iff any CrashPlan has recover_at).
  void set_process_factory(ProcessFactory factory);

  /// Runs to quiescence or until `max_events` events have been processed.
  RunResult run(std::uint64_t max_events = 50'000'000);

  std::size_t n() const { return n_; }
  bool crashed(ProcessId p) const;
  Time crash_time(ProcessId p) const;  ///< +inf when never crashed (first
                                       ///< crash when later recovered)
  /// Restarts performed for p (0 = original incarnation still running).
  std::size_t incarnation(ProcessId p) const;
  const SimStats& stats() const { return stats_; }

  /// The (current incarnation of the) registered process.
  Process& process(ProcessId p);

  /// Messages a process managed to send before crashing (for building the
  /// paper's F[t] sets in the analysis harness).
  std::uint64_t sends_of(ProcessId p) const;

 private:
  enum class EventKind { kStart, kDeliver, kTimer, kCrashAtTime, kRecoverAt };

  /// An event's body. It sits in a slab slot from push to pop and is moved
  /// out once, when it runs; only its 24-byte Key moves through the heap.
  struct Event {
    EventKind kind = EventKind::kStart;
    ProcessId target = 0;
    Message msg;    // kDeliver
    int token = 0;  // kTimer
  };

  struct Key {
    Time t = 0.0;
    std::uint64_t seq = 0;  // tie-break for determinism
    std::uint32_t slot = 0;
  };

  /// Heap order: earliest t first, then push order. seq is unique, so the
  /// pop sequence is a function of (t, seq) alone.
  struct KeyAfter {
    bool operator()(const Key& a, const Key& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  class ContextImpl;
  friend class ContextImpl;

  void push_event(Time t, Event e);
  void enqueue_send(ProcessId from, ProcessId to, int tag, Payload payload,
                    Time now);
  /// Returns false (and marks the sender crashed) when the crash schedule
  /// says this send must not happen.
  bool consume_send_budget(ProcessId from, Time now);
  void crash_now(ProcessId p, Time now);
  void recover_now(ProcessId p, Time now);

  std::size_t n_;
  obs::Tracer disabled_tracer_;  ///< target of tracer_ when none attached
  obs::Tracer* tracer_ = &disabled_tracer_;
  obs::Histogram* delivery_latency_ = nullptr;
  Rng rng_;
  Rng net_rng_;  ///< dedicated stream for fault injection
  std::unique_ptr<DelayModel> delay_;
  std::unique_ptr<LinkFaultModel> faults_;
  CrashSchedule crashes_;
  std::vector<std::unique_ptr<Process>> procs_;
  std::vector<Rng> proc_rngs_;
  std::vector<bool> crashed_;
  std::vector<Time> crash_time_;
  std::vector<std::uint64_t> sends_done_;
  /// Crash plan already fired: a recovered process must not re-trip its
  /// plan (an after_sends budget would otherwise instantly re-crash the
  /// fresh incarnation, whose sends_done_ carries over).
  std::vector<bool> plan_spent_;
  std::vector<std::size_t> incarnation_;
  ProcessFactory factory_;

  // FIFO enforcement: earliest allowed next delivery per directed channel,
  // row-major n x n (from * n + to).
  std::vector<Time> channel_front_;

  // Pending events: bodies in a slab (free slots recycled), keys in a
  // binary min-heap under KeyAfter.
  std::vector<Event> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Key> heap_;
  std::uint64_t next_seq_ = 0;
  bool started_ = false;
  SimStats stats_;
};

}  // namespace chc::sim
