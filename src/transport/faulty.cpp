#include "transport/faulty.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace chc::transport {

double FaultyTransport::wall_now() const {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

double FaultyTransport::model_now() const {
  if (!armed_) return 0.0;
  const double m = (wall_now() - anchor_) / time_scale_;
  return m > 0.0 ? m : 0.0;
}

void FaultyTransport::set_schedule(net::PolicySchedule schedule,
                                   double anchor_realtime_sec,
                                   std::uint64_t seed, double time_scale) {
  schedule_ = std::move(schedule);
  anchor_ = anchor_realtime_sec;
  time_scale_ = time_scale > 0.0 ? time_scale : 1.0;
  rng_ = Rng(seed).fork(static_cast<std::uint64_t>(self()) + 1);
  armed_ = !schedule_.empty();
}

bool FaultyTransport::send(NodeId to, const WireFrame& frame) {
  if (!armed_) return inner_.send(to, frame);
  const net::NetworkPolicy& policy = schedule_.active(model_now());
  const net::ChannelPolicy& cp = policy.for_channel(self(), to);
  if (cp.drop_rate > 0.0 && rng_.bernoulli(cp.drop_rate)) {
    ++stats_.injected_drops;
    return true;  // loss is silent to the sender, like the real network
  }
  if (cp.dup_rate > 0.0 && rng_.bernoulli(cp.dup_rate)) {
    ++stats_.injected_dups;
    inner_.send(to, frame);
  }
  if (cp.reorder_rate > 0.0 && rng_.bernoulli(cp.reorder_rate)) {
    // Park the frame; frames sent meanwhile overtake it.
    const double extra =
        rng_.uniform(net::kReorderDelayMin, net::kReorderDelayMax);
    Held h;
    h.due_wall = wall_now() + extra * time_scale_;
    h.seq = next_seq_++;
    h.to = to;
    h.frame = frame;
    held_.push_back(std::move(h));
    std::push_heap(held_.begin(), held_.end(),
                   [](const Held& a, const Held& b) {
                     return a.due_wall > b.due_wall ||
                            (a.due_wall == b.due_wall && a.seq > b.seq);
                   });
    ++stats_.injected_delays;
    return true;
  }
  ++stats_.passed;
  return inner_.send(to, frame);
}

void FaultyTransport::release_due(double now_wall) {
  const auto later = [](const Held& a, const Held& b) {
    return a.due_wall > b.due_wall ||
           (a.due_wall == b.due_wall && a.seq > b.seq);
  };
  while (!held_.empty() && held_.front().due_wall <= now_wall) {
    std::pop_heap(held_.begin(), held_.end(), later);
    Held h = std::move(held_.back());
    held_.pop_back();
    inner_.send(h.to, h.frame);
    ++stats_.released;
  }
}

std::size_t FaultyTransport::poll(int timeout_ms, const Handler& h) {
  if (held_.empty()) return inner_.poll(timeout_ms, h);
  release_due(wall_now());
  int clamped = timeout_ms;
  if (!held_.empty()) {
    const double wait_s = held_.front().due_wall - wall_now();
    const int wait_ms =
        wait_s <= 0.0 ? 0 : static_cast<int>(std::ceil(wait_s * 1000.0));
    if (timeout_ms < 0 || wait_ms < timeout_ms) clamped = wait_ms;
  }
  const std::size_t delivered = inner_.poll(clamped, h);
  release_due(wall_now());
  return delivered;
}

namespace {

void append_f(std::ostringstream& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << ' ' << buf;
}

void append_channel(std::ostringstream& out, const net::ChannelPolicy& cp) {
  append_f(out, cp.drop_rate);
  append_f(out, cp.dup_rate);
  append_f(out, cp.reorder_rate);
}

bool read_f(std::istringstream& in, double& v) {
  return static_cast<bool>(in >> v);
}

bool read_channel(std::istringstream& in, net::ChannelPolicy& cp) {
  double drop = 0, dup = 0, reorder = 0;
  if (!read_f(in, drop) || !read_f(in, dup) || !read_f(in, reorder)) {
    return false;
  }
  cp = net::ChannelPolicy(drop, dup, reorder);
  return true;
}

bool expect(std::istringstream& in, const char* word) {
  std::string tok;
  return (in >> tok) && tok == word;
}

}  // namespace

std::string encode_nemesis_spec(const NemesisSpec& spec) {
  std::ostringstream out;
  out << "seed " << spec.seed;
  out << " scale";
  append_f(out, spec.time_scale);
  out << " anchor";
  append_f(out, spec.anchor_realtime_sec);
  out << " phases " << spec.schedule.phases().size();
  for (const auto& phase : spec.schedule.phases()) {
    out << " at";
    append_f(out, phase.at);
    out << " link";
    append_channel(out, phase.policy.link);
    out << " ovr " << phase.policy.overrides.size();
    for (const auto& [chan, cp] : phase.policy.overrides) {
      out << ' ' << chan.first << ' ' << chan.second;
      append_channel(out, cp);
    }
  }
  return out.str();
}

std::optional<NemesisSpec> parse_nemesis_spec(const std::string& line) {
  std::istringstream in(line);
  NemesisSpec spec;
  std::size_t n_phases = 0;
  if (!expect(in, "seed") || !(in >> spec.seed) || !expect(in, "scale") ||
      !read_f(in, spec.time_scale) || !expect(in, "anchor") ||
      !read_f(in, spec.anchor_realtime_sec) || !expect(in, "phases") ||
      !(in >> n_phases) || n_phases > 100000) {
    return std::nullopt;
  }
  if (!(spec.time_scale > 0.0)) return std::nullopt;
  double prev_at = -1.0;
  for (std::size_t k = 0; k < n_phases; ++k) {
    double at = 0.0;
    net::NetworkPolicy policy;
    std::size_t n_ovr = 0;
    if (!expect(in, "at") || !read_f(in, at) || !expect(in, "link") ||
        !read_channel(in, policy.link) || !expect(in, "ovr") ||
        !(in >> n_ovr) || n_ovr > 1000000) {
      return std::nullopt;
    }
    if ((k == 0 && at != 0.0) || (k > 0 && at <= prev_at)) {
      return std::nullopt;
    }
    prev_at = at;
    for (std::size_t m = 0; m < n_ovr; ++m) {
      std::uint64_t from = 0, to = 0;
      net::ChannelPolicy cp;
      if (!(in >> from) || !(in >> to) || !read_channel(in, cp)) {
        return std::nullopt;
      }
      policy.set_channel(static_cast<sim::ProcessId>(from),
                         static_cast<sim::ProcessId>(to), cp);
    }
    spec.schedule.add(at, std::move(policy));
  }
  std::string extra;
  if (in >> extra) return std::nullopt;  // trailing garbage
  return spec;
}

std::vector<obs::HeaderPolicyPhase> to_header_phases(
    const net::PolicySchedule& schedule) {
  std::vector<obs::HeaderPolicyPhase> out;
  out.reserve(schedule.phases().size());
  for (const net::PolicySchedule::Phase& ph : schedule.phases()) {
    obs::HeaderPolicyPhase hp;
    hp.at = ph.at;
    hp.drop = ph.policy.link.drop_rate;
    hp.dup = ph.policy.link.dup_rate;
    hp.reorder = ph.policy.link.reorder_rate;
    for (const auto& [chan, cp] : ph.policy.overrides) {
      obs::HeaderChannelOverride co;
      co.from = chan.first;
      co.to = chan.second;
      co.drop = cp.drop_rate;
      co.dup = cp.dup_rate;
      co.reorder = cp.reorder_rate;
      hp.overrides.push_back(co);
    }
    out.push_back(std::move(hp));
  }
  return out;
}

}  // namespace chc::transport
