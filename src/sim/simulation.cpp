#include "sim/simulation.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace chc::sim {

/// Context handed to a process for the duration of one callback.
class Simulation::ContextImpl final : public Context {
 public:
  ContextImpl(Simulation* sim, ProcessId pid, Time now)
      : sim_(sim), pid_(pid), now_(now) {}

  ProcessId self() const override { return pid_; }
  std::size_t n() const override { return sim_->n_; }
  Time now() const override { return now_; }

  void send(ProcessId to, int tag, std::any payload) override {
    CHC_CHECK(to < sim_->n_, "send target out of range");
    if (!sim_->consume_send_budget(pid_, now_)) return;
    sim_->enqueue_send(pid_, to, tag, make_payload(std::move(payload)), now_);
  }

  void broadcast_others(int tag, const std::any& payload) override {
    // One copy of the value, shared by every recipient.
    const Payload shared = make_payload(payload);
    for (ProcessId to = 0; to < sim_->n_; ++to) {
      if (to == pid_) continue;
      // Each send individually consumes crash budget: a mid-broadcast crash
      // truncates the loop, so only a prefix of recipients gets the message.
      if (!sim_->consume_send_budget(pid_, now_)) return;
      sim_->enqueue_send(pid_, to, tag, shared, now_);
    }
  }

  void set_timer(Time delay, int token) override {
    CHC_CHECK(delay > 0.0, "timer delay must be positive");
    Event e;
    e.kind = EventKind::kTimer;
    e.target = pid_;
    e.token = token;
    sim_->push_event(now_ + delay, std::move(e));
  }

  Rng& rng() override { return sim_->proc_rngs_[pid_]; }

 private:
  Simulation* sim_;
  ProcessId pid_;
  Time now_;
};

Simulation::Simulation(std::size_t n, std::uint64_t seed,
                       std::unique_ptr<DelayModel> delay,
                       CrashSchedule crashes)
    : n_(n),
      rng_(seed),
      net_rng_(rng_.fork(777)),
      delay_(std::move(delay)),
      crashes_(std::move(crashes)),
      crashed_(n, false),
      crash_time_(n, std::numeric_limits<Time>::infinity()),
      sends_done_(n, 0),
      plan_spent_(n, false),
      incarnation_(n, 0),
      channel_front_(n * n, 0.0) {
  CHC_CHECK(n_ >= 1, "simulation needs at least one process");
  CHC_CHECK(delay_ != nullptr, "delay model required");
  proc_rngs_.reserve(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    proc_rngs_.push_back(rng_.fork(1000 + i));
  }
}

void Simulation::add_process(std::unique_ptr<Process> p) {
  CHC_CHECK(p != nullptr, "null process");
  CHC_CHECK(procs_.size() < n_, "more processes than configured n");
  procs_.push_back(std::move(p));
}

void Simulation::set_fault_model(std::unique_ptr<LinkFaultModel> faults) {
  CHC_CHECK(!started_, "fault model must be installed before run()");
  faults_ = std::move(faults);
}

void Simulation::set_tracer(obs::Tracer* tracer) {
  CHC_CHECK(!started_, "tracer must be attached before run()");
  tracer_ = tracer != nullptr ? tracer : &disabled_tracer_;
}

void Simulation::set_process_factory(ProcessFactory factory) {
  CHC_CHECK(!started_, "process factory must be installed before run()");
  factory_ = std::move(factory);
}

void Simulation::set_metrics(obs::Registry* metrics) {
  CHC_CHECK(!started_, "metrics must be attached before run()");
  delivery_latency_ =
      metrics != nullptr
          ? &metrics->histogram("sim.delivery_latency",
                                {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0})
          : nullptr;
}

void Simulation::push_event(Time t, Event e) {
  if (free_slots_.empty()) {
    CHC_INTERNAL(slab_.size() < std::numeric_limits<std::uint32_t>::max(),
                 "event slab exhausted");
    free_slots_.push_back(static_cast<std::uint32_t>(slab_.size()));
    slab_.emplace_back();
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  slab_[slot] = std::move(e);
  heap_.push_back(Key{t, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), KeyAfter{});
}

bool Simulation::consume_send_budget(ProcessId from, Time now) {
  if (crashed_[from]) {
    ++stats_.sends_suppressed;
    return false;
  }
  if (const CrashPlan* plan = crashes_.plan_for(from);
      plan != nullptr && !plan_spent_[from]) {
    if (plan->after_sends && sends_done_[from] >= *plan->after_sends) {
      crash_now(from, now);
      ++stats_.sends_suppressed;
      return false;
    }
  }
  ++sends_done_[from];
  return true;
}

void Simulation::enqueue_send(ProcessId from, ProcessId to, int tag,
                              Payload payload, Time now) {
  ++stats_.messages_sent;
  ++stats_.sent_by_tag[tag];
  tracer_->emit_with([&] {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kSend;
    e.t = now;
    e.p = from;
    e.peer = to;
    e.tag = tag;
    return e;
  });

  LinkFaultDecision fate;
  if (faults_ != nullptr) {
    fate = faults_->decide(from, to, tag, now, net_rng_);
    CHC_INTERNAL(fate.drop || fate.copies >= 1,
                 "fault model must enqueue at least one copy");
  }
  if (fate.drop) {
    ++stats_.net_dropped;
    ++stats_.dropped_by_tag[tag];
    tracer_->emit_with([&] {
      obs::TraceEvent e;
      e.kind = obs::EventKind::kNetDrop;
      e.t = now;
      e.p = from;
      e.peer = to;
      e.tag = tag;
      return e;
    });
    return;
  }
  if (fate.copies > 1) {
    stats_.net_duplicated += fate.copies - 1;
    stats_.duplicated_by_tag[tag] += fate.copies - 1;
    tracer_->emit_with([&] {
      obs::TraceEvent e;
      e.kind = obs::EventKind::kNetDup;
      e.t = now;
      e.p = from;
      e.peer = to;
      e.tag = tag;
      e.aux = fate.copies - 1;
      return e;
    });
  }
  if (fate.bypass_fifo) ++stats_.net_reordered;

  for (std::size_t copy = 0; copy < fate.copies; ++copy) {
    const Time raw = delay_->delay(from, to, now, rng_) + fate.extra_delay;
    CHC_INTERNAL(raw > 0.0, "delay model must return positive delays");
    Time at = now + raw;
    if (!fate.bypass_fifo) {
      // Reliable FIFO: never deliver before an earlier message on this
      // channel. Reordered messages skip the clamp entirely — they neither
      // wait for nor advance the channel front.
      Time& front = channel_front_[from * n_ + to];
      at = std::max(at, front + 1e-9);
      front = at;
    }

    if (delivery_latency_ != nullptr) delivery_latency_->observe(at - now);

    Event e;
    e.kind = EventKind::kDeliver;
    e.target = to;
    e.msg = Message{from, to, tag,
                    copy + 1 == fate.copies ? std::move(payload) : payload};
    push_event(at, std::move(e));
  }
}

void Simulation::crash_now(ProcessId p, Time now) {
  if (crashed_[p]) return;
  crashed_[p] = true;
  plan_spent_[p] = true;
  if (crash_time_[p] == std::numeric_limits<Time>::infinity()) {
    crash_time_[p] = now;
  }
  tracer_->emit_with([&] {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kCrash;
    e.t = now;
    e.p = p;
    return e;
  });
}

void Simulation::recover_now(ProcessId p, Time now) {
  // A no-op when the crash trigger never fired (e.g. an after_sends budget
  // the process never exhausted): there is nothing to recover from.
  if (!crashed_[p]) return;
  CHC_CHECK(factory_ != nullptr,
            "recover_at requires a process factory (set_process_factory)");
  crashed_[p] = false;
  ++incarnation_[p];
  ++stats_.recoveries;
  procs_[p] = factory_(p, incarnation_[p], std::move(procs_[p]));
  CHC_CHECK(procs_[p] != nullptr, "process factory returned null");
  tracer_->emit_with([&] {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kRecover;
    e.t = now;
    e.p = p;
    return e;
  });
  ContextImpl ctx(this, p, now);
  procs_[p]->on_start(ctx);
}

RunResult Simulation::run(std::uint64_t max_events) {
  CHC_CHECK(procs_.size() == n_, "add_process must be called exactly n times");
  if (!started_) {
    started_ = true;
    CHC_CHECK(!crashes_.any_recovery() || factory_ != nullptr,
              "crash schedule plans a recovery but no process factory is "
              "installed");
    for (ProcessId p = 0; p < n_; ++p) {
      Event e;
      e.kind = EventKind::kStart;
      e.target = p;
      push_event(0.0, std::move(e));
      if (const CrashPlan* plan = crashes_.plan_for(p)) {
        if (plan->at_time) {
          Event c;
          c.kind = EventKind::kCrashAtTime;
          c.target = p;
          push_event(*plan->at_time, std::move(c));
        }
        if (plan->recover_at) {
          CHC_CHECK(!plan->at_time || *plan->recover_at > *plan->at_time,
                    "recover_at must come after at_time");
          Event r;
          r.kind = EventKind::kRecoverAt;
          r.target = p;
          push_event(*plan->recover_at, std::move(r));
        }
      }
    }
  }

  RunResult result;
  while (!heap_.empty()) {
    if (stats_.events_processed >= max_events) {
      result.quiescent = false;
      result.stats = stats_;
      return result;
    }
    std::pop_heap(heap_.begin(), heap_.end(), KeyAfter{});
    const Key key = heap_.back();
    heap_.pop_back();
    const Event e = std::move(slab_[key.slot]);
    free_slots_.push_back(key.slot);
    const Time t = key.t;
    ++stats_.events_processed;
    stats_.end_time = t;

    switch (e.kind) {
      case EventKind::kCrashAtTime:
        crash_now(e.target, t);
        break;
      case EventKind::kRecoverAt:
        recover_now(e.target, t);
        break;
      case EventKind::kStart: {
        if (crashed_[e.target]) break;
        ContextImpl ctx(this, e.target, t);
        procs_[e.target]->on_start(ctx);
        break;
      }
      case EventKind::kDeliver: {
        if (crashed_[e.target]) {
          ++stats_.messages_dropped;
          tracer_->emit_with([&] {
            obs::TraceEvent ev;
            ev.kind = obs::EventKind::kDropCrashed;
            ev.t = t;
            ev.p = e.target;
            ev.peer = e.msg.from;
            ev.tag = e.msg.tag;
            return ev;
          });
          break;
        }
        ++stats_.messages_delivered;
        tracer_->emit_with([&] {
          obs::TraceEvent ev;
          ev.kind = obs::EventKind::kRecv;
          ev.t = t;
          ev.p = e.target;
          ev.peer = e.msg.from;
          ev.tag = e.msg.tag;
          return ev;
        });
        ContextImpl ctx(this, e.target, t);
        procs_[e.target]->on_message(ctx, e.msg);
        break;
      }
      case EventKind::kTimer: {
        if (crashed_[e.target]) break;
        ++stats_.timers_fired;
        ContextImpl ctx(this, e.target, t);
        procs_[e.target]->on_timer(ctx, e.token);
        break;
      }
    }
  }
  result.quiescent = true;
  result.stats = stats_;
  return result;
}

bool Simulation::crashed(ProcessId p) const {
  CHC_CHECK(p < n_, "process id out of range");
  return crashed_[p];
}

Time Simulation::crash_time(ProcessId p) const {
  CHC_CHECK(p < n_, "process id out of range");
  return crash_time_[p];
}

std::size_t Simulation::incarnation(ProcessId p) const {
  CHC_CHECK(p < n_, "process id out of range");
  return incarnation_[p];
}

Process& Simulation::process(ProcessId p) {
  CHC_CHECK(p < procs_.size(), "process id out of range");
  return *procs_[p];
}

std::uint64_t Simulation::sends_of(ProcessId p) const {
  CHC_CHECK(p < n_, "process id out of range");
  return sends_done_[p];
}

}  // namespace chc::sim
