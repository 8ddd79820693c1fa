// chc_cluster: launcher / controller for a real multi-process cluster.
//
//   chc_cluster [--nodes N] [--f F] [--d D] [--eps E] [--instances K]
//               [--seed BASE] [--trace-dir DIR] [--node-bin PATH]
//               [--no-kill] [--soak SECONDS] [--timeout SECONDS]
//               [--time-scale S] [--report FILE]
//               [--nemesis NAME|all] [--list-nemesis]
//               [--fuzz CYCLES] [--soak-minutes M]
//
// Spawns N chc_node processes on 127.0.0.1 (ephemeral ports, reserved by
// probing), drives waves of Algorithm CC instances through them via the
// line RPC, and verifies the outcome three ways: pairwise decision
// agreement (Hausdorff distance <= eps), per-node trace checking, and a
// merged full-view trace per instance (trace-dir/merged_i<id>.jsonl, with
// synthesized crash/recover events between a killed node's epoch
// segments) re-verified by the same offline pass `chc_check` runs in CI.
//
// Two driving modes:
//
//  * Legacy kill/restart (default): two waves of K instances; unless
//    --no-kill, the workload-faulty node is SIGKILLed mid-wave-1,
//    restarted with a bumped --epoch, and must fully rejoin (decide every
//    wave-2 instance). --soak S repeats such cycles for ~S seconds.
//
//  * Live nemesis (--nemesis / --fuzz / --soak-minutes): a
//    nemesis::LivePreset compiles one Scenario into (a) a
//    net::PolicySchedule broadcast to every node's FaultyTransport over
//    the NEMESIS RPC, anchored to one shared wall-clock instant, (b)
//    SIGKILL / restart+epoch-bump / SIGSTOP / SIGCONT actions this
//    controller executes at anchored times, and (c) per-node --clock-rate
//    skews (nodes whose rate changes are cleanly restarted first). After
//    the plan's quiet point every never-killed node must decide.
//    --nemesis takes one preset name or `all`; --fuzz N runs N seeded
//    random scenario compositions; --soak-minutes M repeats fuzz cycles
//    with rotating seeds for ~M minutes and additionally gates RSS and
//    send-queue high-water stability across the run (first-third vs
//    last-third means). Nemesis presets fix n/f/d/eps (5/1/2/0.15).
//
// Exit 0 only when every required instance decided, every agreement held,
// every trace passed the checker, and (soak) the stability gates held.
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <netinet/in.h>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "common/rng.hpp"
#include "core/workload.hpp"
#include "geometry/polytope.hpp"
#include "nemesis/live.hpp"
#include "obs/checker.hpp"
#include "obs/trace.hpp"
#include "transport/faulty.hpp"
#include "transport/rpc.hpp"

namespace {

using namespace chc;
namespace fs = std::filesystem;

/// Wall seconds between broadcasting a NEMESIS schedule and its t=0: long
/// enough for N round-trips of the arming RPC, short enough not to matter.
constexpr double kAnchorLeadSec = 0.35;

/// TcpTransport's per-peer send-queue bound (tcp.cpp refuses the insert
/// past this, so the high-water mark can never legitimately exceed it).
constexpr double kOutqCapBytes = 8.0 * 1024.0 * 1024.0;

void usage() {
  std::cerr
      << "usage: chc_cluster [--nodes N] [--f F] [--d D] [--eps E]\n"
         "                   [--instances K] [--seed BASE] [--trace-dir "
         "DIR]\n"
         "                   [--node-bin PATH] [--no-kill] [--soak SECONDS]\n"
         "                   [--timeout SECONDS] [--time-scale S]\n"
         "                   [--report FILE]\n"
         "                   [--nemesis NAME|all] [--list-nemesis]\n"
         "                   [--fuzz CYCLES] [--soak-minutes M]\n"
         "nemesis presets fix --nodes/--f/--d/--eps; see --list-nemesis\n";
}

double mono_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CLOCK_REALTIME seconds — the clock FaultyTransport maps its schedule
/// on, so anchors computed here and phase switches there agree.
double realtime_now() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Sleeps (coarsely far out, finely close in) until the realtime instant.
void wait_until_realtime(double target) {
  for (;;) {
    const double remaining = target - realtime_now();
    if (remaining <= 0.0) return;
    sleep_ms(remaining > 0.05 ? 20 : 2);
  }
}

/// VmRSS of a live process in kB (0 when unreadable — e.g. it just died).
double read_rss_kb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0.0;
      if (is >> kb) return kb;
    }
  }
  return 0.0;
}

/// Value of `key` in a "STATS k=v k=v ..." reply (0 when absent).
std::uint64_t stats_value(const std::string& reply, const std::string& key) {
  std::istringstream is(reply);
  std::string tok;
  while (is >> tok) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos || tok.substr(0, eq) != key) continue;
    return std::strtoull(tok.c_str() + eq + 1, nullptr, 10);
  }
  return 0;
}

/// Reserves an ephemeral TCP port by binding :0 and closing. The tiny
/// reuse race is acceptable for a local test harness.
std::uint16_t reserve_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return 0;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ::close(fd);
  return ntohs(addr.sin_port);
}

struct Options {
  std::size_t nodes = 5;
  std::size_t f = 1;
  std::size_t d = 2;
  double eps = 0.15;
  std::size_t instances = 2;  ///< per wave / nemesis cycle
  std::uint64_t seed = 1;
  std::string trace_dir = "cluster-traces";
  std::string node_bin;
  bool kill = true;
  double soak = 0.0;
  double timeout = 90.0;
  double time_scale = 2e-3;
  bool time_scale_set = false;
  std::string report;
  std::string nemesis;        ///< preset name or "all"
  bool list_nemesis = false;
  std::uint64_t fuzz = 0;     ///< random nemesis cycles
  double soak_minutes = 0.0;  ///< rotating-seed fuzz soak
};

struct Node {
  pid_t pid = -1;
  std::uint16_t peer_port = 0;
  std::uint16_t rpc_port = 0;
  std::uint64_t epoch = 0;
  double clock_rate = 1.0;
  bool alive = false;
  bool paused = false;  ///< under SIGSTOP
};

class Cluster {
 public:
  Cluster(const Options& opt) : opt_(opt), nodes_(opt.nodes) {
    for (auto& n : nodes_) {
      n.peer_port = reserve_port();
      n.rpc_port = reserve_port();
      if (n.peer_port == 0 || n.rpc_port == 0) {
        throw std::runtime_error("cannot reserve local ports");
      }
    }
    std::ostringstream spec;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (i != 0) spec << ',';
      spec << "127.0.0.1:" << nodes_[i].peer_port;
    }
    cluster_spec_ = spec.str();
  }

  ~Cluster() {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].alive && nodes_[i].pid > 0) {
        ::kill(nodes_[i].pid, SIGKILL);
        ::waitpid(nodes_[i].pid, nullptr, 0);
      }
    }
  }

  bool spawn(std::size_t i) {
    Node& n = nodes_[i];
    const std::string log = opt_.trace_dir + "/node" + std::to_string(i) +
                            "_e" + std::to_string(n.epoch) + ".log";
    const pid_t pid = ::fork();
    if (pid < 0) return false;
    if (pid == 0) {
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      std::vector<std::string> args = {
          opt_.node_bin,
          "--id", std::to_string(i),
          "--cluster", cluster_spec_,
          "--client-port", std::to_string(n.rpc_port),
          "--epoch", std::to_string(n.epoch),
          "--trace-dir", opt_.trace_dir,
          "--time-scale", std::to_string(opt_.time_scale),
      };
      if (n.clock_rate != 1.0) {
        std::ostringstream rate;
        rate.precision(17);
        rate << n.clock_rate;
        args.push_back("--clock-rate");
        args.push_back(rate.str());
      }
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    n.pid = pid;
    n.alive = true;
    n.paused = false;
    return true;
  }

  /// PINGs node i until it answers (the readiness barrier after spawn).
  bool wait_ready(std::size_t i, double deadline_s = 15.0) {
    const double deadline = mono_now() + deadline_s;
    while (mono_now() < deadline) {
      transport::LineClient c;
      if (c.connect_to("127.0.0.1", nodes_[i].rpc_port, 200)) {
        const auto resp = c.request("PING", 500);
        if (resp && resp->rfind("PONG", 0) == 0) return true;
      }
      sleep_ms(50);
    }
    return false;
  }

  std::optional<std::string> rpc(std::size_t i, const std::string& req,
                                 int timeout_ms = 2000) {
    transport::LineClient c;
    if (!c.connect_to("127.0.0.1", nodes_[i].rpc_port, timeout_ms)) {
      return std::nullopt;
    }
    return c.request(req, timeout_ms);
  }

  void kill_node(std::size_t i) {
    Node& n = nodes_[i];
    if (!n.alive) return;
    ::kill(n.pid, SIGKILL);  // also terminates a SIGSTOPped process
    ::waitpid(n.pid, nullptr, 0);
    n.alive = false;
    n.paused = false;
  }

  void stop_node(std::size_t i) {
    Node& n = nodes_[i];
    if (!n.alive || n.paused) return;
    ::kill(n.pid, SIGSTOP);
    n.paused = true;
  }

  void cont_node(std::size_t i) {
    Node& n = nodes_[i];
    if (!n.alive || !n.paused) return;
    ::kill(n.pid, SIGCONT);
    n.paused = false;
  }

  bool restart_node(std::size_t i) {
    Node& n = nodes_[i];
    if (n.alive) return true;
    ++n.epoch;
    return spawn(i) && wait_ready(i);
  }

  /// Makes node i run at `rate`. A live node at a different rate is shut
  /// down CLEANLY (SHUTDOWN RPC -> SIGKILL fallback) and respawned with a
  /// bumped epoch — clock rate is a spawn-time property of chc_node.
  bool set_clock_rate(std::size_t i, double rate) {
    Node& n = nodes_[i];
    if (!n.alive) {
      n.clock_rate = rate;
      ++n.epoch;
      return spawn(i) && wait_ready(i);
    }
    if (std::abs(n.clock_rate - rate) < 1e-12) return true;
    shutdown_one(i);
    n.clock_rate = rate;
    ++n.epoch;
    return spawn(i) && wait_ready(i);
  }

  void shutdown_one(std::size_t i) {
    Node& n = nodes_[i];
    if (!n.alive) return;
    cont_node(i);  // a SIGSTOPped node cannot serve SHUTDOWN
    rpc(i, "SHUTDOWN", 2000);
    int status = 0;
    const double deadline = mono_now() + 5.0;
    while (mono_now() < deadline) {
      const pid_t r = ::waitpid(n.pid, &status, WNOHANG);
      if (r == n.pid) {
        n.alive = false;
        break;
      }
      sleep_ms(20);
    }
    if (n.alive) {
      ::kill(n.pid, SIGKILL);
      ::waitpid(n.pid, nullptr, 0);
      n.alive = false;
    }
  }

  void shutdown_all() {
    for (std::size_t i = 0; i < nodes_.size(); ++i) shutdown_one(i);
  }

  std::size_t n() const { return nodes_.size(); }
  bool alive(std::size_t i) const { return nodes_[i].alive; }
  pid_t pid(std::size_t i) const { return nodes_[i].pid; }
  std::uint64_t epoch(std::size_t i) const { return nodes_[i].epoch; }
  std::uint64_t max_epoch() const {
    std::uint64_t m = 0;
    for (const Node& n : nodes_) m = std::max(m, n.epoch);
    return m;
  }

 private:
  Options opt_;
  std::vector<Node> nodes_;
  std::string cluster_spec_;
};

/// One instance's controller-side bookkeeping.
struct InstanceRun {
  std::uint64_t id = 0;
  std::uint64_t seed = 0;
  core::Workload workload;
  double magnitude = 1.0;
  /// Nodes SIGKILLed while this instance was in flight (merge synthesizes
  /// their crash events).
  std::set<std::size_t> killed;
};

std::string submit_line(const Options& opt, const InstanceRun& run) {
  std::ostringstream os;
  os.precision(17);
  os << "SUBMIT " << run.id << ' ' << opt.nodes << ' ' << opt.f << ' '
     << opt.d << ' ' << opt.eps << ' ' << run.seed << ' ' << run.magnitude
     << ' ' << run.workload.faulty.size();
  for (const auto p : run.workload.faulty) os << ' ' << p;
  for (const geo::Vec& v : run.workload.inputs) {
    for (std::size_t k = 0; k < v.dim(); ++k) os << ' ' << v[k];
  }
  return os.str();
}

/// `nf` — how many workload-faulty pids to draw (<= opt.f; nemesis presets
/// with no process fault run nf = 0 so every node must decide).
InstanceRun make_run(const Options& opt, std::uint64_t id,
                     std::uint64_t seed, std::size_t nf) {
  InstanceRun run;
  run.id = id;
  run.seed = seed;
  run.workload = core::make_workload(opt.nodes, nf, opt.d,
                                     core::InputPattern::kUniform, seed);
  run.magnitude = std::max(1.0, run.workload.correct_magnitude);
  return run;
}

/// Parses a DECIDED response into vertices; nullopt for anything else.
std::optional<std::vector<geo::Vec>> parse_decided(const std::string& resp) {
  std::istringstream is(resp);
  std::string word;
  if (!(is >> word) || word != "DECIDED") return std::nullopt;
  std::size_t round = 0, nverts = 0, d = 0;
  if (!(is >> round >> nverts >> d)) return std::nullopt;
  std::vector<geo::Vec> verts;
  verts.reserve(nverts);
  for (std::size_t v = 0; v < nverts; ++v) {
    geo::Vec x(d);
    for (std::size_t k = 0; k < d; ++k) {
      if (!(is >> x[k])) return std::nullopt;
    }
    verts.push_back(std::move(x));
  }
  return verts;
}

// --- Trace merging -------------------------------------------------------

struct TraceSegment {
  obs::TraceHeader header;
  std::vector<obs::TraceEvent> events;
  bool decided = false;
};

/// Loads one per-node trace file; tolerates a torn final line (SIGKILL).
std::optional<TraceSegment> load_segment(const fs::path& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  TraceSegment seg;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (first) {
      first = false;
      if (!obs::parse_header(line, seg.header)) return std::nullopt;
      continue;
    }
    obs::TraceEvent e;
    if (obs::parse_event(line, e)) {
      if (e.kind == obs::EventKind::kDecide) seg.decided = true;
      seg.events.push_back(std::move(e));
      continue;
    }
    obs::TraceFooter f;
    if (obs::parse_footer(line, f)) continue;
    // Anything else is only legitimate as a torn final line; the checker
    // applies the same rule per file.
  }
  if (first) return std::nullopt;  // empty file
  return seg;
}

/// Merges the per-node perspective traces of one instance into a full-view
/// live trace, synthesizing kCrash/kRecover between a node's epoch
/// segments (and a trailing kCrash for nodes that died without deciding).
/// `epoch_limit` bounds the per-node epoch scan (soak runs bump epochs far
/// past the old fixed window). Returns false when no node produced a
/// usable trace.
bool merge_instance_traces(const Options& opt, const InstanceRun& run,
                           std::uint64_t epoch_limit,
                           const fs::path& out_path) {
  std::vector<std::vector<TraceSegment>> per_node(opt.nodes);
  bool have_header = false;
  obs::TraceHeader header;
  for (std::size_t k = 0; k < opt.nodes; ++k) {
    for (std::uint64_t e = 0; e <= epoch_limit; ++e) {
      const fs::path p = fs::path(opt.trace_dir) /
                         ("i" + std::to_string(run.id) + "_node" +
                          std::to_string(k) + "_e" + std::to_string(e) +
                          ".jsonl");
      if (!fs::exists(p)) continue;
      auto seg = load_segment(p);
      if (seg) {
        if (!have_header) {
          header = seg->header;
          have_header = true;
        }
        per_node[k].push_back(std::move(*seg));
      }
    }
  }
  if (!have_header) return false;

  header.perspective = -1;  // full view: every process appears
  header.clock_rate = 1.0;  // per-recording-node property, meaningless here
  std::ofstream out(out_path);
  if (!out) return false;
  out << obs::to_jsonl(header) << "\n";

  std::uint64_t seq = 0;
  std::size_t decided_nodes = 0;
  bool quiescent = true;
  for (std::size_t k = 0; k < opt.nodes; ++k) {
    const auto& segs = per_node[k];
    for (std::size_t j = 0; j < segs.size(); ++j) {
      if (j > 0) {
        // A later epoch segment exists: the previous incarnation died.
        obs::TraceEvent crash;
        crash.kind = obs::EventKind::kCrash;
        crash.p = k;
        crash.t = segs[j - 1].events.empty() ? 0.0
                                             : segs[j - 1].events.back().t;
        crash.seq = seq++;
        out << obs::to_jsonl(crash) << "\n";
        obs::TraceEvent rec;
        rec.kind = obs::EventKind::kRecover;
        rec.p = k;
        rec.t = segs[j].events.empty() ? crash.t : segs[j].events.front().t;
        rec.seq = seq++;
        out << obs::to_jsonl(rec) << "\n";
      }
      for (obs::TraceEvent e : segs[j].events) {
        e.seq = seq++;
        out << obs::to_jsonl(e) << "\n";
      }
    }
    // The checker's liveness rule counts only each process's LATEST
    // incarnation (a kRecover resets that state): a node that decided in
    // epoch e, died, and re-ran the instance without deciding again is NOT
    // decided in the merged view.
    const bool last_decided = !segs.empty() && segs.back().decided;
    if (last_decided) ++decided_nodes;
    // A killed node with no later-epoch segment for this instance ends the
    // trace crashed; one that recovered (j > 0 above) ends it live.
    const bool ends_crashed =
        run.killed.count(k) != 0 && !last_decided && segs.size() <= 1;
    if (ends_crashed) {
      obs::TraceEvent crash;
      crash.kind = obs::EventKind::kCrash;
      crash.p = k;
      crash.t = segs.empty() || segs.back().events.empty()
                    ? 0.0
                    : segs.back().events.back().t;
      crash.seq = seq++;
      out << obs::to_jsonl(crash) << "\n";
    }
    // Quiescent = every node either decided (latest incarnation) or is
    // down. A recovered node stuck on a re-submitted instance makes the
    // run non-quiescent — the checker then checks safety only, which is
    // the correct contract: ever-crashed processes are liveness-exempt.
    if (!last_decided && !ends_crashed) quiescent = false;
  }

  obs::TraceFooter footer;
  footer.decided = decided_nodes;
  footer.quiescent = quiescent;
  out << obs::to_jsonl(footer) << "\n";
  return true;
}

/// One nemesis cycle's stability sample (soak gates).
struct SoakSample {
  double max_rss_kb = 0.0;
  double max_outq_hwm = 0.0;
};

double mean_of(const std::vector<SoakSample>& v, std::size_t begin,
               std::size_t end, double SoakSample::*field) {
  double sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) sum += v[i].*field;
  return end > begin ? sum / static_cast<double>(end - begin) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    const auto count = [&] { return cli::count_arg(arg, next(), usage); };
    const auto real = [&] { return cli::real_arg(arg, next(), usage); };
    if (arg == "--nodes") opt.nodes = count();
    else if (arg == "--f") opt.f = count();
    else if (arg == "--d") opt.d = count();
    else if (arg == "--eps") opt.eps = real();
    else if (arg == "--instances") opt.instances = count();
    else if (arg == "--seed") opt.seed = count();
    else if (arg == "--trace-dir") opt.trace_dir = next();
    else if (arg == "--node-bin") opt.node_bin = next();
    else if (arg == "--no-kill") opt.kill = false;
    else if (arg == "--soak") opt.soak = real();
    else if (arg == "--timeout") opt.timeout = real();
    else if (arg == "--time-scale") {
      opt.time_scale = real();
      opt.time_scale_set = true;
    }
    else if (arg == "--report") opt.report = next();
    else if (arg == "--nemesis") opt.nemesis = next();
    else if (arg == "--list-nemesis") opt.list_nemesis = true;
    else if (arg == "--fuzz") opt.fuzz = count();
    else if (arg == "--soak-minutes") {
      opt.soak_minutes = real();
    }
    else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      usage();
      return 2;
    }
  }
  if (opt.list_nemesis) {
    for (const nemesis::LivePreset& p : nemesis::live_presets()) {
      std::cout << p.name << "\n    " << p.description << "\n";
    }
    return 0;
  }
  const bool nemesis_mode =
      !opt.nemesis.empty() || opt.fuzz > 0 || opt.soak_minutes > 0.0;

  // Resolve the nemesis preset list up front: a typo'd name should die on
  // usage, not after a cluster spawn.
  std::vector<const nemesis::LivePreset*> chosen;
  if (!opt.nemesis.empty()) {
    if (opt.nemesis == "all") {
      for (const nemesis::LivePreset& p : nemesis::live_presets()) {
        chosen.push_back(&p);
      }
    } else {
      const nemesis::LivePreset* p = nemesis::find_live_preset(opt.nemesis);
      if (p == nullptr) {
        std::cerr << "unknown nemesis preset: " << opt.nemesis
                  << " (see --list-nemesis)\n";
        return 2;
      }
      chosen.push_back(p);
    }
  }
  if (nemesis_mode) {
    // Every live preset (and the fuzz sampler) is built for one cluster
    // shape; the scenario's cut/kill targets assume it.
    const nemesis::LivePreset& shape =
        chosen.empty() ? nemesis::live_presets().front() : *chosen.front();
    opt.nodes = shape.n;
    opt.f = shape.f;
    opt.d = shape.d;
    opt.eps = shape.eps;
    // A live preset spans tens of model units and the controller must act
    // MID-protocol: 20 ms/unit paces a 40-unit partition at 0.8 s wall.
    if (!opt.time_scale_set) opt.time_scale = 0.02;
  }

  if (opt.nodes == 0 || opt.instances == 0 || opt.nodes > 32) {
    std::cerr << "implausible --nodes / --instances\n";
    usage();
    return 2;
  }
  if (opt.node_bin.empty()) {
    // Default: chc_node sitting next to this binary.
    opt.node_bin =
        (fs::path(argv[0]).parent_path() / "chc_node").string();
  }
  if (!fs::exists(opt.node_bin)) {
    std::cerr << "node binary not found: " << opt.node_bin
              << " (use --node-bin)\n";
    return 2;
  }
  fs::create_directories(opt.trace_dir);

  bool all_ok = true;
  std::vector<std::string> failures;
  std::vector<InstanceRun> runs;
  std::vector<SoakSample> samples;
  double max_agreement = 0.0;
  std::uint64_t epoch_limit = 16;
  const auto fail = [&](const std::string& why) {
    all_ok = false;
    failures.push_back(why);
    std::cerr << "FAIL: " << why << "\n";
  };

  try {
    Cluster cluster(opt);
    for (std::size_t i = 0; i < opt.nodes; ++i) {
      if (!cluster.spawn(i)) throw std::runtime_error("fork failed");
    }
    for (std::size_t i = 0; i < opt.nodes; ++i) {
      if (!cluster.wait_ready(i)) {
        throw std::runtime_error("node " + std::to_string(i) +
                                 " never became ready");
      }
    }
    std::cout << "cluster up: " << opt.nodes << " nodes\n";

    const auto submit_to_all = [&](const InstanceRun& run) {
      const std::string line = submit_line(opt, run);
      for (std::size_t k = 0; k < cluster.n(); ++k) {
        if (!cluster.alive(k)) continue;
        const auto resp = cluster.rpc(k, line);
        if (!resp || *resp != "OK") {
          fail("SUBMIT i" + std::to_string(run.id) + " to node " +
               std::to_string(k) + " -> " + resp.value_or("(no response)"));
        }
      }
    };

    /// Waits until every node in `required` reports DECIDED for `iid`.
    const auto wait_decided = [&](std::uint64_t iid,
                                  const std::set<std::size_t>& required) {
      const double deadline = mono_now() + opt.timeout;
      std::set<std::size_t> done;
      while (mono_now() < deadline && done.size() < required.size()) {
        for (const std::size_t k : required) {
          if (done.count(k) != 0 || !cluster.alive(k)) continue;
          const auto resp =
              cluster.rpc(k, "STATUS " + std::to_string(iid), 1000);
          if (resp && resp->rfind("DECIDED", 0) == 0) done.insert(k);
          if (resp && *resp == "FAILED") {
            fail("instance " + std::to_string(iid) + " FAILED on node " +
                 std::to_string(k));
            return false;
          }
        }
        if (done.size() < required.size()) sleep_ms(30);
      }
      if (done.size() < required.size()) {
        fail("instance " + std::to_string(iid) + " timed out (" +
             std::to_string(done.size()) + "/" +
             std::to_string(required.size()) + " nodes decided)");
        return false;
      }
      return true;
    };

    /// Pairwise decision agreement across whatever nodes answer DECIDED.
    const auto check_agreement = [&](const InstanceRun& run) {
      std::vector<geo::Polytope> decisions;
      for (std::size_t k = 0; k < cluster.n(); ++k) {
        if (!cluster.alive(k)) continue;
        const auto resp =
            cluster.rpc(k, "STATUS " + std::to_string(run.id), 1000);
        if (!resp) continue;
        const auto verts = parse_decided(*resp);
        if (verts && !verts->empty()) {
          decisions.push_back(geo::Polytope::from_points(*verts));
        }
      }
      for (std::size_t a = 0; a < decisions.size(); ++a) {
        for (std::size_t b = a + 1; b < decisions.size(); ++b) {
          const double dist = geo::hausdorff(decisions[a], decisions[b]);
          max_agreement = std::max(max_agreement, dist);
          if (dist > opt.eps + 1e-6) {
            fail("instance " + std::to_string(run.id) +
                 ": pairwise decision distance " + std::to_string(dist) +
                 " > eps " + std::to_string(opt.eps));
          }
        }
      }
    };

    std::uint64_t next_id = 0;
    std::uint64_t next_seed = opt.seed;

    if (nemesis_mode) {
      /// One preset run end to end: skews applied, schedule anchored and
      /// broadcast, instances submitted at the anchor, actions executed
      /// at anchored wall times, decisions and agreement gated.
      const auto run_cycle = [&](const nemesis::LivePreset& preset,
                                 std::uint64_t scenario_seed) {
        std::cout << "nemesis cycle: " << preset.name << " (seed "
                  << scenario_seed << ")\n";
        std::vector<InstanceRun> wave;
        for (std::size_t i = 0; i < opt.instances; ++i) {
          wave.push_back(
              make_run(opt, next_id++, next_seed++, preset.crash_count));
        }
        const nemesis::Scenario scen =
            preset.build(wave[0].workload.faulty, opt.nodes);
        const nemesis::LivePlan plan =
            nemesis::compile_live(scen, opt.nodes);

        for (std::size_t k = 0; k < cluster.n(); ++k) {
          const auto it = plan.skews.find(k);
          const double rate = it == plan.skews.end() ? 1.0 : it->second;
          if (!cluster.set_clock_rate(k, rate)) {
            throw std::runtime_error("node " + std::to_string(k) +
                                     " did not restart with clock rate " +
                                     std::to_string(rate));
          }
        }

        const double anchor = realtime_now() + kAnchorLeadSec;
        std::string arm_line;
        if (!plan.schedule.empty()) {
          transport::NemesisSpec spec;
          spec.schedule = plan.schedule;
          spec.seed = scenario_seed;
          spec.anchor_realtime_sec = anchor;
          spec.time_scale = opt.time_scale;
          arm_line = "NEMESIS " + transport::encode_nemesis_spec(spec);
          for (std::size_t k = 0; k < cluster.n(); ++k) {
            const auto resp = cluster.rpc(k, arm_line);
            if (!resp || *resp != "OK") {
              fail("NEMESIS arm on node " + std::to_string(k) + " -> " +
                   resp.value_or("(no response)"));
            }
          }
        }

        wait_until_realtime(anchor);
        for (const auto& run : wave) submit_to_all(run);

        std::set<std::size_t> killed_now;
        for (const nemesis::LiveAction& a : plan.actions) {
          wait_until_realtime(anchor + a.at * opt.time_scale);
          switch (a.kind) {
            case nemesis::LiveAction::Kind::kKill:
              cluster.kill_node(a.node);
              killed_now.insert(a.node);
              for (auto& run : wave) run.killed.insert(a.node);
              std::cout << "  t=" << a.at << " SIGKILL node " << a.node
                        << "\n";
              break;
            case nemesis::LiveAction::Kind::kRestart:
              if (!cluster.restart_node(a.node)) {
                throw std::runtime_error("node " + std::to_string(a.node) +
                                         " did not come back");
              }
              std::cout << "  t=" << a.at << " restarted node " << a.node
                        << " (epoch " << cluster.epoch(a.node) << ")\n";
              // Re-arm (the anchor is wall-clock: the new incarnation
              // lands mid-schedule in the right phase) and hand it the
              // in-flight specs; it serves retransmissions and may even
              // finish, but is not REQUIRED to (a recovered process is
              // faulty in the paper's accounting).
              if (!arm_line.empty()) cluster.rpc(a.node, arm_line);
              for (const auto& run : wave) {
                cluster.rpc(a.node, submit_line(opt, run));
              }
              break;
            case nemesis::LiveAction::Kind::kStop:
              cluster.stop_node(a.node);
              std::cout << "  t=" << a.at << " SIGSTOP node " << a.node
                        << "\n";
              break;
            case nemesis::LiveAction::Kind::kCont:
              cluster.cont_node(a.node);
              std::cout << "  t=" << a.at << " SIGCONT node " << a.node
                        << "\n";
              break;
          }
        }
        wait_until_realtime(anchor + plan.quiet_at * opt.time_scale);

        std::set<std::size_t> required;
        for (std::size_t k = 0; k < cluster.n(); ++k) {
          if (killed_now.count(k) == 0) required.insert(k);
        }
        for (const auto& run : wave) wait_decided(run.id, required);
        for (const auto& run : wave) check_agreement(run);

        SoakSample sample;
        for (std::size_t k = 0; k < cluster.n(); ++k) {
          if (!cluster.alive(k)) continue;
          const auto resp = cluster.rpc(k, "STATUS");
          if (resp && resp->rfind("STATS", 0) == 0) {
            sample.max_outq_hwm = std::max(
                sample.max_outq_hwm,
                static_cast<double>(stats_value(*resp, "outq_hwm_bytes")));
          }
          sample.max_rss_kb =
              std::max(sample.max_rss_kb, read_rss_kb(cluster.pid(k)));
          cluster.rpc(k, "NEMESIS OFF");
        }
        samples.push_back(sample);

        // Heal for the next cycle: revive anything the plan left dead.
        for (const std::size_t k : killed_now) {
          if (!cluster.alive(k) && !cluster.restart_node(k)) {
            throw std::runtime_error("node " + std::to_string(k) +
                                     " did not come back after the cycle");
          }
        }
        for (auto& run : wave) runs.push_back(std::move(run));
      };

      if (!chosen.empty()) {
        for (std::size_t i = 0; i < chosen.size() && all_ok; ++i) {
          run_cycle(*chosen[i], opt.seed + i);
        }
      } else if (opt.fuzz > 0) {
        for (std::uint64_t c = 0; c < opt.fuzz && all_ok; ++c) {
          run_cycle(nemesis::sample_live_preset(opt.seed + c), opt.seed + c);
        }
      } else {
        const double deadline = mono_now() + opt.soak_minutes * 60.0;
        std::uint64_t c = 0;
        while (mono_now() < deadline && all_ok) {
          run_cycle(nemesis::sample_live_preset(opt.seed + c), opt.seed + c);
          ++c;
        }
        std::cout << "soak: " << c << " cycles in " << opt.soak_minutes
                  << " minutes\n";
      }
    } else {
      const double soak_deadline =
          opt.soak > 0.0 ? mono_now() + opt.soak : mono_now();
      std::size_t cycle = 0;
      // Normal mode runs exactly one kill/recover cycle (wave 1 + wave 2);
      // soak mode repeats cycles until its deadline.
      do {
        // --- wave 1: submit, kill the faulty node mid-run, finish -------
        std::vector<InstanceRun> wave1;
        for (std::size_t i = 0; i < opt.instances; ++i) {
          wave1.push_back(make_run(opt, next_id++, next_seed++, opt.f));
        }
        for (const auto& run : wave1) submit_to_all(run);

        std::optional<std::size_t> victim;
        if (opt.kill && opt.f > 0 && !wave1[0].workload.faulty.empty()) {
          victim = static_cast<std::size_t>(wave1[0].workload.faulty[0]);
          // Randomized dwell (seeded, reproducible): somewhere between
          // submit and typical decide time, so the kill lands
          // mid-protocol.
          Rng kill_rng(next_seed * 7919 + cycle);
          sleep_ms(20 + static_cast<int>(kill_rng.uniform() * 150.0));
          cluster.kill_node(*victim);
          for (auto& run : wave1) run.killed.insert(*victim);
          std::cout << "killed node " << *victim << " (cycle " << cycle
                    << ")\n";
        }

        std::set<std::size_t> survivors;
        for (std::size_t k = 0; k < cluster.n(); ++k) {
          if (cluster.alive(k)) survivors.insert(k);
        }
        for (const auto& run : wave1) wait_decided(run.id, survivors);

        // --- recover, then wave 2 must include the restarted node -------
        if (victim) {
          if (!cluster.restart_node(*victim)) {
            throw std::runtime_error("node " + std::to_string(*victim) +
                                     " did not come back");
          }
          std::cout << "restarted node " << *victim << " (epoch "
                    << cluster.epoch(*victim) << ")\n";
          // Hand the wave-1 specs to the new incarnation too: it serves
          // its peers' retransmissions and may finish late; it is not
          // REQUIRED to (a recovered process is faulty in the paper's
          // accounting).
          for (const auto& run : wave1) {
            cluster.rpc(*victim, submit_line(opt, run));
          }
        }

        std::vector<InstanceRun> wave2;
        for (std::size_t i = 0; i < opt.instances; ++i) {
          wave2.push_back(make_run(opt, next_id++, next_seed++, opt.f));
        }
        for (const auto& run : wave2) submit_to_all(run);
        std::set<std::size_t> everyone;
        for (std::size_t k = 0; k < cluster.n(); ++k) everyone.insert(k);
        for (const auto& run : wave2) {
          // Full rejoin proof: the restarted node decides these too.
          wait_decided(run.id, everyone);
        }

        for (const auto* wave : {&wave1, &wave2}) {
          for (const auto& run : *wave) check_agreement(run);
        }
        for (auto& run : wave1) runs.push_back(std::move(run));
        for (auto& run : wave2) runs.push_back(std::move(run));
        ++cycle;
      } while (opt.soak > 0.0 && mono_now() < soak_deadline && all_ok);
    }

    epoch_limit = std::max<std::uint64_t>(epoch_limit, cluster.max_epoch());
    cluster.shutdown_all();
    std::cout << "cluster down; verifying traces\n";
  } catch (const std::exception& ex) {
    fail(ex.what());
  }

  // --- soak stability gates ----------------------------------------------
  if (!samples.empty()) {
    double max_outq = 0.0, max_rss = 0.0;
    for (const SoakSample& s : samples) {
      max_outq = std::max(max_outq, s.max_outq_hwm);
      max_rss = std::max(max_rss, s.max_rss_kb);
    }
    std::cout << "stability: " << samples.size() << " cycles, outq hwm "
              << max_outq << " B, peak RSS " << max_rss << " kB\n";
    if (max_outq > kOutqCapBytes) {
      fail("send-queue high-water " + std::to_string(max_outq) +
           " B exceeds the " + std::to_string(kOutqCapBytes) + " B bound");
    }
    if (opt.soak_minutes > 0.0 && samples.size() >= 6) {
      const std::size_t third = samples.size() / 3;
      const double rss_early =
          mean_of(samples, 0, third, &SoakSample::max_rss_kb);
      const double rss_late =
          mean_of(samples, samples.size() - third, samples.size(),
                  &SoakSample::max_rss_kb);
      // Slack: allocator warm-up and trace buffers legitimately grow a
      // little; an unbounded leak blows far past 1.5x + 16 MiB.
      if (rss_late > rss_early * 1.5 + 16384.0) {
        fail("soak RSS drift: first-third mean " +
             std::to_string(rss_early) + " kB -> last-third mean " +
             std::to_string(rss_late) + " kB");
      }
      const double outq_early =
          mean_of(samples, 0, third, &SoakSample::max_outq_hwm);
      const double outq_late =
          mean_of(samples, samples.size() - third, samples.size(),
                  &SoakSample::max_outq_hwm);
      if (outq_late > outq_early * 2.0 + 1024.0 * 1024.0) {
        fail("soak outq hwm drift: first-third mean " +
             std::to_string(outq_early) + " B -> last-third mean " +
             std::to_string(outq_late) + " B");
      }
    }
  }

  // --- offline verification: per-node traces + merged full-view traces --
  std::size_t traces_checked = 0;
  obs::CheckOptions copts;
  for (const auto& run : runs) {
    for (const auto& entry : fs::directory_iterator(opt.trace_dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("i" + std::to_string(run.id) + "_node", 0) != 0 ||
          entry.path().extension() != ".jsonl") {
        continue;
      }
      const auto report = obs::check_trace_file(entry.path().string(), copts);
      ++traces_checked;
      if (!report.parsed) {
        fail(name + ": " + report.parse_error);
      } else if (!report.ok()) {
        fail(name + ": " + obs::describe(report.violations.front()));
      }
    }
    const fs::path merged =
        fs::path(opt.trace_dir) / ("merged_i" + std::to_string(run.id) +
                                   ".jsonl");
    if (!merge_instance_traces(opt, run, epoch_limit, merged)) {
      fail("could not merge traces of instance " + std::to_string(run.id));
      continue;
    }
    const auto report = obs::check_trace_file(merged.string(), copts);
    ++traces_checked;
    if (!report.parsed) {
      fail(merged.filename().string() + ": " + report.parse_error);
    } else if (!report.ok()) {
      fail(merged.filename().string() + ": " +
           obs::describe(report.violations.front()));
    }
  }

  std::cout << (all_ok ? "PASS" : "FAIL") << ": " << runs.size()
            << " instances, " << traces_checked
            << " traces checked, max pairwise decision distance "
            << max_agreement << "\n";

  if (!opt.report.empty()) {
    std::ofstream rep(opt.report);
    rep << "{\"ok\": " << (all_ok ? "true" : "false")
        << ", \"instances\": " << runs.size()
        << ", \"traces_checked\": " << traces_checked
        << ", \"max_agreement\": " << max_agreement
        << ", \"nemesis_cycles\": " << samples.size() << ", \"failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      if (i != 0) rep << ", ";
      std::string esc;
      for (char ch : failures[i]) {
        if (ch == '"' || ch == '\\') esc += '\\';
        esc += ch;
      }
      rep << '"' << esc << '"';
    }
    rep << "]}\n";
  }
  return all_ok ? 0 : 1;
}
