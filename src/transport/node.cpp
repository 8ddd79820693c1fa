#include "transport/node.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"
#include "transport/payload.hpp"

namespace chc::transport {

namespace {

double mono_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

net::ReliableParams live_reliable_params() {
  net::ReliableParams p;  // sim-calibrated rto/backoff/jitter
  // A restarting peer is gone for wall seconds (hundreds of model units at
  // the default time scale); keep retransmitting well past that so the
  // channel is still alive when the new incarnation's HELLO lands.
  p.rto_max = 50.0;
  p.max_retries = 200;
  return p;
}

// --- AtomicLineSink ------------------------------------------------------

AtomicLineSink::AtomicLineSink(const std::string& path) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("cannot create trace file " + path);
  }
}

AtomicLineSink::~AtomicLineSink() { close(); }

void AtomicLineSink::write(const obs::TraceEvent& e) {
  write_line(obs::to_jsonl(e));
}

void AtomicLineSink::write_line(const std::string& line) {
  std::lock_guard<std::mutex> lk(mu_);
  if (fd_ < 0) return;
  std::string out = line;
  out += '\n';
  // One write(2) per record: a SIGKILL mid-call tears at most this line,
  // never an earlier one.
  const ssize_t wrote = ::write(fd_, out.data(), out.size());
  (void)wrote;
}

void AtomicLineSink::close() {
  std::lock_guard<std::mutex> lk(mu_);
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

// --- NodeRuntime ---------------------------------------------------------

struct NodeRuntime::Instance {
  std::uint64_t id = 0;
  core::CCConfig cfg;
  std::uint64_t seed = 0;
  std::unique_ptr<AtomicLineSink> sink;     // null when tracing is off
  std::unique_ptr<obs::Tracer> tracer;      // stable address (shim holds it)
  std::unique_ptr<core::TraceCollector> collector;
  std::unique_ptr<net::ReliableChannel> shim;
  Rng rng{0};

  struct Timer {
    double due = 0.0;
    std::uint64_t seq = 0;
    int token = 0;
  };
  struct Later {
    bool operator()(const Timer& a, const Timer& b) const {
      if (a.due != b.due) return a.due > b.due;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Timer, std::vector<Timer>, Later> timers;
  std::uint64_t timer_seq = 0;

  bool decided = false;
  bool failed = false;
  bool footer_written = false;

  const core::CCProcess& cc() const {
    return static_cast<const core::CCProcess&>(shim->inner());
  }
};

class NodeRuntime::Ctx final : public sim::Context {
 public:
  Ctx(NodeRuntime& rt, Instance& inst) : rt_(rt), inst_(inst) {}

  sim::ProcessId self() const override { return rt_.cfg_.id; }
  std::size_t n() const override { return inst_.cfg.n; }
  sim::Time now() const override { return rt_.model_now(); }

  void send(sim::ProcessId to, int tag, std::any payload) override {
    const sim::Time t = now();
    inst_.tracer->emit_with([&] {
      obs::TraceEvent e;
      e.kind = obs::EventKind::kSend;
      e.t = t;
      e.p = rt_.cfg_.id;
      e.peer = to;
      e.tag = tag;
      return e;
    });
    if (to == rt_.cfg_.id) {
      // Local loop: no serialization, delivered on the next drain.
      rt_.local_q_.emplace_back(
          inst_.id,
          sim::Message{to, to, tag, sim::make_payload(std::move(payload))});
      return;
    }
    WireFrame frame;
    frame.instance = inst_.id;
    if (tag == net::kTagRelData) {
      const auto* d = std::any_cast<net::RelData>(&payload);
      CHC_INTERNAL(d != nullptr, "RelData tag with foreign payload");
      const auto rel = to_rel_frame(*d);
      CHC_INTERNAL(rel.has_value(),
                   "reliable frame wraps a payload the wire codec "
                   "does not support");
      frame.kind = FrameKind::kData;
      frame.payload = codec::encode(*rel);
    } else if (tag == net::kTagRelAck) {
      const auto* a = std::any_cast<net::RelAck>(&payload);
      CHC_INTERNAL(a != nullptr, "RelAck tag with foreign payload");
      frame.kind = FrameKind::kAck;
      frame.payload = codec::encode_rel_ack(to_rel_ack(*a));
    } else {
      // Everything the protocol stack emits goes through the reliable
      // shim; a bare tag here means the stack was mis-wired.
      CHC_INTERNAL(false, "live node sent an unshimmed tag");
    }
    rt_.transport_.send(to, frame);
  }

  void broadcast_others(int tag, const std::any& payload) override {
    for (sim::ProcessId p = 0; p < inst_.cfg.n; ++p) {
      if (p != rt_.cfg_.id) send(p, tag, payload);
    }
  }

  void set_timer(sim::Time delay, int token) override {
    inst_.timers.push({rt_.model_now() + delay, inst_.timer_seq++, token});
  }

  Rng& rng() override { return inst_.rng; }

 private:
  NodeRuntime& rt_;
  Instance& inst_;
};

NodeRuntime::NodeRuntime(const NodeConfig& cfg, Transport& transport)
    : cfg_(cfg), transport_(transport), start_wall_(mono_now()) {
  CHC_CHECK(cfg_.n > 0 && cfg_.id < cfg_.n, "node id out of range");
  CHC_CHECK(cfg_.time_scale > 0.0, "time scale must be positive");
  CHC_CHECK(cfg_.clock_rate > 0.0, "clock rate must be positive");
  CHC_CHECK(transport.self() == cfg_.id && transport.n() == cfg_.n,
            "transport does not match the node identity");
}

NodeRuntime::~NodeRuntime() = default;

double NodeRuntime::model_now() const {
  return (mono_now() - start_wall_) * cfg_.clock_rate / cfg_.time_scale;
}

void NodeRuntime::set_nemesis_phases(
    std::vector<obs::HeaderPolicyPhase> phases) {
  nemesis_phases_ = std::move(phases);
}

std::size_t NodeRuntime::decided_count() const {
  std::size_t c = 0;
  for (const auto& [id, inst] : instances_) {
    if (inst->decided) ++c;
  }
  return c;
}

void NodeRuntime::start_instance(const InstanceSpec& spec) {
  if (instances_.find(spec.id) != instances_.end()) return;
  CHC_CHECK(spec.cc.n == cfg_.n, "instance n != cluster size");
  CHC_CHECK(spec.inputs.size() == cfg_.n, "one input per node required");

  auto inst = std::make_unique<Instance>();
  inst->id = spec.id;
  inst->cfg = spec.cc;
  inst->seed = spec.seed;
  inst->rng = Rng(spec.seed).fork(cfg_.id);
  if (!cfg_.trace_dir.empty()) {
    // The epoch is part of the name: a restarted node must never truncate
    // its dead incarnation's trace — that file is the crash's evidence.
    const std::string path = cfg_.trace_dir + "/i" +
                             std::to_string(spec.id) + "_node" +
                             std::to_string(cfg_.id) + "_e" +
                             std::to_string(cfg_.epoch) + ".jsonl";
    inst->sink = std::make_unique<AtomicLineSink>(path);
  }
  inst->tracer = std::make_unique<obs::Tracer>(inst->sink.get());
  inst->collector =
      std::make_unique<core::TraceCollector>(spec.cc.n, inst->tracer.get());
  auto cc = std::make_unique<core::CCProcess>(
      spec.cc, spec.inputs.at(cfg_.id), inst->collector.get());
  // Restarted peers re-run the protocol from scratch; a second round-t
  // message from the same id is legitimate in a cluster.
  cc->allow_sender_restart();
  inst->shim = std::make_unique<net::ReliableChannel>(
      std::move(cc), cfg_.rel, inst->tracer.get(), cfg_.epoch);

  if (inst->tracer->enabled()) {
    obs::TraceHeader h = core::config_header(spec.cc);
    h.env = "live";
    h.perspective = static_cast<std::int64_t>(cfg_.id);
    h.seed = spec.seed;
    h.reliable = true;
    h.rto = cfg_.rel.rto;
    h.backoff = cfg_.rel.backoff;
    h.rto_max = cfg_.rel.rto_max;
    h.jitter = cfg_.rel.jitter;
    h.max_retries = cfg_.rel.max_retries;
    h.clock_rate = cfg_.clock_rate;
    h.phases = nemesis_phases_;
    h.faulty = spec.faulty;
    h.inputs.reserve(spec.inputs.size());
    for (const geo::Vec& x : spec.inputs) h.inputs.push_back(x.coords());
    inst->tracer->line(obs::to_jsonl(h));
  }

  Instance& ref = *inst;
  instances_.emplace(spec.id, std::move(inst));
  Ctx ctx(*this, ref);
  ref.shim->on_start(ctx);
  check_progress(ref);

  // Frames that raced ahead of the SUBMIT (peers start instances at
  // different wall times) were parked; feed them in arrival order.
  const auto it = pending_.find(spec.id);
  if (it != pending_.end()) {
    auto parked = std::move(it->second);
    pending_.erase(it);
    pending_frames_ -= parked.size();
    for (auto& [from, frame] : parked) dispatch(ref, from, frame);
  }
}

bool NodeRuntime::has_instance(std::uint64_t id) const {
  return instances_.find(id) != instances_.end();
}

NodeRuntime::InstanceStatus NodeRuntime::status(std::uint64_t id) const {
  InstanceStatus s;
  const auto it = instances_.find(id);
  if (it == instances_.end()) return s;
  const Instance& inst = *it->second;
  s.known = true;
  s.decided = inst.decided;
  s.failed = inst.failed;
  const std::size_t done = inst.cc().completed_rounds();
  s.round = done == 0 ? 0 : done - 1;
  if (inst.decided && inst.cc().decision().has_value()) {
    s.decision = inst.cc().decision()->vertices();
  }
  return s;
}

NodeRuntime::Instance& NodeRuntime::get(std::uint64_t id) {
  const auto it = instances_.find(id);
  CHC_INTERNAL(it != instances_.end(), "unknown instance");
  return *it->second;
}

void NodeRuntime::dispatch(Instance& inst, NodeId from,
                           const WireFrame& frame) {
  sim::Message msg;
  msg.from = from;
  msg.to = cfg_.id;
  if (frame.kind == FrameKind::kData) {
    const auto rel = codec::decode_rel_frame(frame.payload);
    if (!rel) return;  // malformed; the sender will retransmit or give up
    auto data = from_rel_frame(*rel);
    if (!data) return;
    msg.tag = net::kTagRelData;
    msg.payload = sim::make_payload(std::move(*data));
  } else if (frame.kind == FrameKind::kAck) {
    const auto ack = codec::decode_rel_ack(frame.payload);
    if (!ack) return;
    msg.tag = net::kTagRelAck;
    msg.payload = sim::make_payload(from_rel_ack(*ack));
  } else {
    return;  // HELLOs are consumed by the transport
  }
  inst.tracer->emit_with([&] {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kRecv;
    e.t = model_now();
    e.p = cfg_.id;
    e.peer = from;
    e.tag = msg.tag;
    return e;
  });
  Ctx ctx(*this, inst);
  inst.shim->on_message(ctx, msg);
  check_progress(inst);
}

std::size_t NodeRuntime::drain_local() {
  std::size_t done = 0;
  while (!local_q_.empty()) {
    auto [iid, msg] = std::move(local_q_.front());
    local_q_.pop_front();
    const auto it = instances_.find(iid);
    if (it == instances_.end()) continue;
    Instance& inst = *it->second;
    inst.tracer->emit_with([&] {
      obs::TraceEvent e;
      e.kind = obs::EventKind::kRecv;
      e.t = model_now();
      e.p = cfg_.id;
      e.peer = msg.from;
      e.tag = msg.tag;
      return e;
    });
    Ctx ctx(*this, inst);
    inst.shim->on_message(ctx, msg);
    check_progress(inst);
    ++done;
  }
  return done;
}

std::size_t NodeRuntime::fire_due_timers() {
  std::size_t fired = 0;
  for (auto& [id, inst] : instances_) {
    while (!inst->timers.empty() &&
           inst->timers.top().due <= model_now()) {
      const int token = inst->timers.top().token;
      inst->timers.pop();
      Ctx ctx(*this, *inst);
      inst->shim->on_timer(ctx, token);
      check_progress(*inst);
      ++fired;
    }
  }
  return fired;
}

std::size_t NodeRuntime::step(int timeout_ms) {
  std::size_t done = drain_local();
  int wait = done > 0 ? 0 : timeout_ms;
  // Never sleep past the next due timer.
  double next_due = std::numeric_limits<double>::infinity();
  for (const auto& [id, inst] : instances_) {
    if (!inst->timers.empty()) {
      next_due = std::min(next_due, inst->timers.top().due);
    }
  }
  if (std::isfinite(next_due)) {
    const double ms = (next_due - model_now()) * cfg_.time_scale /
                      cfg_.clock_rate * 1000.0;
    wait = std::min(wait, std::max(0, static_cast<int>(ms)));
  }
  done += transport_.poll(wait, [&](NodeId from, WireFrame frame) {
    const auto it = instances_.find(frame.instance);
    if (it == instances_.end()) {
      if (pending_frames_ < kMaxPendingFrames) {
        pending_[frame.instance].emplace_back(from, std::move(frame));
        ++pending_frames_;
      }
      return;
    }
    dispatch(*it->second, from, frame);
  });
  done += fire_due_timers();
  done += drain_local();
  return done;
}

void NodeRuntime::check_progress(Instance& inst) {
  if (inst.footer_written) return;
  const core::CCProcess& cc = inst.cc();
  if (cc.decision().has_value()) {
    inst.decided = true;
  } else if (cc.round0_failed()) {
    inst.failed = true;
  } else {
    return;
  }
  obs::TraceFooter f;
  f.quiescent = inst.decided;
  f.decided = inst.decided ? 1 : 0;
  inst.tracer->line(obs::to_jsonl(f));
  // The trace is complete; the instance stays resident (its store/ack
  // roles keep serving recovering peers) but records nothing further.
  if (inst.sink != nullptr) inst.sink->close();
  inst.footer_written = true;
}

void NodeRuntime::shutdown() {
  for (auto& [id, inst] : instances_) {
    if (inst->footer_written) continue;
    obs::TraceFooter f;  // not quiescent: shut down mid-run
    inst->tracer->line(obs::to_jsonl(f));
    if (inst->sink != nullptr) inst->sink->close();
    inst->footer_written = true;
  }
}

net::ShimStats NodeRuntime::shim_stats() const {
  net::ShimStats total;
  for (const auto& [id, inst] : instances_) total += inst->shim->stats();
  return total;
}

}  // namespace chc::transport
