// Per-layer measurement from outside the program.
//
// Every span here is recorded by benchmark-owned code around a public
// boundary of the repository; nothing inside src/ is instrumented:
//
//   TimedProcess   decorates a sim::Process. Around net::ReliableChannel it
//                  charges every callback to the shim; around
//                  core::CCProcess it splits callbacks by message tag
//                  (100-105 = stable vector / round 0, everything else =
//                  the CC rounds).
//   TimedContext   decorates the sim::Context handed to a process and
//                  charges its outgoing send / broadcast_others /
//                  set_timer calls to the layer below: the shim when the
//                  caller is the protocol under a shim, the simulator
//                  ("sim plumbing") otherwise.
//   TimedTransport decorates a transport::Transport (live cluster): frame
//                  counts and bytes, send time, and the time spent in the
//                  receive handler (the node runtime's protocol stack).
//
// Spans nest on one stack per LayerClock, so a layer's self time is its
// inclusive time minus the spans opened inside it.
// run_traced() is core::run_cc_lossy_custom re-assembled from the same
// public parts with the decorators inserted; the benchmark checks its
// decisions against the public entry points bit for bit.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/lossy.hpp"
#include "core/process_cc.hpp"
#include "sim/process.hpp"
#include "transport/transport.hpp"

namespace chc::perfbench {

enum class Layer : int {
  kSim,      ///< Simulation::run event loop (root span)
  kSimSend,  ///< outgoing calls into the simulator (plumbing)
  kNet,      ///< net::ReliableChannel
  kDsm,      ///< CCProcess handling stable-vector traffic (round 0)
  kRound,    ///< CCProcess handling round messages (the L rounds)
  kCertify,  ///< core::certify
  kCount,
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class LayerClock {
 public:
  class Scope {
   public:
    Scope(LayerClock& c, Layer l) : c_(c) { c_.enter(l); }
    ~Scope() { c_.leave(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    LayerClock& c_;
  };

  void enter(Layer l) { stack_.push_back({l, now_ns(), 0}); }
  void leave();

  double self_ms(Layer l) const { return self_ns_[idx(l)] * 1e-6; }
  double inclusive_ms(Layer l) const { return incl_ns_[idx(l)] * 1e-6; }

 private:
  static std::size_t idx(Layer l) { return static_cast<std::size_t>(l); }

  struct Frame {
    Layer layer;
    std::int64_t start;
    std::int64_t child;
  };
  std::vector<Frame> stack_;
  std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)> self_ns_{};
  /// Outermost spans only (a layer re-entered below itself counts once).
  std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)> incl_ns_{};
};

/// Everything the decorators of one run (or one phase) accumulate.
struct Probe {
  LayerClock clock;
  std::uint64_t shim_timer_calls = 0;
  /// Stable-vector messages (tags 100-105) the protocol handed down.
  std::uint64_t dsm_msgs = 0;
  /// Model time of each process's decision in the current run (< 0: none).
  std::vector<double> decide_at;
};

class TimedContext final : public sim::Context {
 public:
  /// `dsm_msgs` (optional) counts outgoing stable-vector messages.
  TimedContext(sim::Context& inner, LayerClock& clock, Layer out,
               std::uint64_t* dsm_msgs)
      : inner_(inner), clock_(clock), out_(out), dsm_msgs_(dsm_msgs) {}

  sim::ProcessId self() const override { return inner_.self(); }
  std::size_t n() const override { return inner_.n(); }
  sim::Time now() const override { return inner_.now(); }
  Rng& rng() override { return inner_.rng(); }

  void send(sim::ProcessId to, int tag, std::any payload) override {
    count(tag, 1);
    LayerClock::Scope s(clock_, out_);
    inner_.send(to, tag, std::move(payload));
  }
  void broadcast_others(int tag, const std::any& payload) override {
    count(tag, inner_.n() - 1);
    LayerClock::Scope s(clock_, out_);
    inner_.broadcast_others(tag, payload);
  }
  void set_timer(sim::Time delay, int token) override {
    LayerClock::Scope s(clock_, out_);
    inner_.set_timer(delay, token);
  }

 private:
  void count(int tag, std::size_t k) {
    if (dsm_msgs_ != nullptr && tag >= 100 && tag <= 105) *dsm_msgs_ += k;
  }

  sim::Context& inner_;
  LayerClock& clock_;
  Layer out_;
  std::uint64_t* dsm_msgs_;
};

class TimedProcess final : public sim::Process {
 public:
  /// Decorates a ReliableChannel: every callback is shim time.
  TimedProcess(std::unique_ptr<sim::Process> shim, Probe& probe);
  /// Decorates a CCProcess; `shimmed` says whether a ReliableChannel sits
  /// between it and the simulator.
  TimedProcess(std::unique_ptr<core::CCProcess> cc, Probe& probe,
               bool shimmed);

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, const sim::Message& msg) override;
  void on_timer(sim::Context& ctx, int token) override;

 private:
  template <typename F>
  void around(sim::Context& ctx, Layer layer, F&& call);

  std::unique_ptr<sim::Process> inner_;
  const core::CCProcess* cc_ = nullptr;  ///< inner_ when decorating CC
  Probe& probe_;
  Layer out_;
};

/// core::run_cc_lossy_custom with TimedProcess / TimedContext around every
/// process and a kSim span around the event loop and a kCertify span
/// around certification. Writes decide times into probe.decide_at.
core::LossyRunOutput run_traced(const core::LossyRunConfig& lc,
                                const core::Workload& workload, Probe& probe);

/// Counters and spans of a TimedTransport.
struct TransportProbe {
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::int64_t send_ns = 0;
  std::uint64_t frames_handled = 0;
  std::int64_t handler_ns = 0;  ///< handler self time (nested sends excluded)
  bool in_handler = false;
  /// A sample of sent DATA frames, kept for re-decoding after the run.
  std::vector<transport::WireFrame> captured;
  std::size_t capture_limit = 0;
};

class TimedTransport final : public transport::Transport {
 public:
  TimedTransport(std::unique_ptr<transport::Transport> inner,
                 TransportProbe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  transport::NodeId self() const override { return inner_->self(); }
  std::size_t n() const override { return inner_->n(); }
  bool send(transport::NodeId to, const transport::WireFrame& frame) override;
  std::size_t poll(int timeout_ms, const Handler& h) override;

 private:
  std::unique_ptr<transport::Transport> inner_;
  TransportProbe& probe_;
};

}  // namespace chc::perfbench
