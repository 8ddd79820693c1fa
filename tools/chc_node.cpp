// chc_node: one consensus process of a real multi-node cluster.
//
//   chc_node --id I --cluster host:port,host:port,...
//            [--client-port P] [--epoch E] [--trace-dir DIR]
//            [--time-scale S] [--clock-rate R]
//
// Speaks the RelFrame codec over TCP to its peers (transport/tcp) and a
// line RPC to clients on 127.0.0.1:P (0 = ephemeral; the chosen port is in
// the READY line). Runs any number of Algorithm CC instances concurrently;
// each instance writes a per-node JSONL trace (env=live, perspective=I)
// that tools/chc_check verifies offline. The transport is wrapped in a
// FaultyTransport decorator, passthrough until a NEMESIS request arms it.
//
// RPC protocol (one request line -> one response line):
//   PING
//     -> PONG <id> <epoch>
//   SUBMIT <iid> <n> <f> <d> <eps> <seed> <magnitude> <nf> <faulty...>
//          <n*d input coordinates, row-major>
//     -> OK | ERR <reason>          (idempotent per <iid>)
//   STATUS <iid>
//     -> UNKNOWN | RUNNING <round> | FAILED
//      | DECIDED <round> <nverts> <d> <coords...>
//   STATUS
//     -> STATS key=value ...        (transport / shim / nemesis counters)
//   METRICS
//     -> one-line JSON obs::Registry dump of the same counters
//   NEMESIS seed <s> scale <t> anchor <a> phases <k> ...
//     -> OK | ERR <reason>          (arms the fault schedule; see
//                                    transport::parse_nemesis_spec)
//   NEMESIS OFF
//     -> OK                         (disarms)
//   SHUTDOWN
//     -> BYE                        (footers written, process exits 0)
//
// Crash testing: SIGKILL is the intended crash switch — no handler runs,
// in-flight state dies, the trace keeps every fully written line. Restart
// with --epoch E+1 and peers' reliable channels resynchronize. SIGTERM /
// SIGINT by contrast shut down CLEANLY: the loop drains, footers are
// flushed and sockets closed, so only SIGKILL produces torn trace tails.
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "obs/metrics.hpp"
#include "transport/faulty.hpp"
#include "transport/node.hpp"
#include "transport/rpc.hpp"
#include "transport/tcp.hpp"

namespace {

using namespace chc;

volatile std::sig_atomic_t g_stop_signal = 0;

void on_stop_signal(int sig) { g_stop_signal = sig; }

void install_signal_handlers() {
  struct sigaction sa {};
  sa.sa_handler = on_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: poll() returns EINTR -> loop notices
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

void usage() {
  std::cerr
      << "usage: chc_node --id I --cluster host:port,...\n"
         "                [--client-port P] [--epoch E] [--trace-dir DIR]\n"
         "                [--time-scale SECONDS_PER_MODEL_UNIT]\n"
         "                [--clock-rate MULTIPLIER]\n";
}

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

/// SUBMIT argument vector -> InstanceSpec. Returns an error string, empty
/// on success.
std::string parse_submit(const std::vector<std::string>& tok,
                         transport::InstanceSpec& spec) {
  // SUBMIT iid n f d eps seed magnitude nf faulty... coords...
  if (tok.size() < 9) return "SUBMIT needs at least 8 arguments";
  std::uint64_t n = 0, f = 0, d = 0, nf = 0;
  double eps = 0.0, mag = 0.0;
  if (!cli::parse_count(tok[1], spec.id) || !cli::parse_count(tok[2], n) ||
      !cli::parse_count(tok[3], f) || !cli::parse_count(tok[4], d) ||
      !cli::parse_real(tok[5], eps) || !cli::parse_count(tok[6], spec.seed) ||
      !cli::parse_real(tok[7], mag) || !cli::parse_count(tok[8], nf)) {
    return "malformed SUBMIT scalar";
  }
  // nf <= n also keeps the count below from wrapping around.
  if (n == 0 || n > 64 || d == 0 || d > 8 || nf > n || eps <= 0.0 ||
      mag <= 0.0) {
    return "implausible instance parameters";
  }
  const std::size_t want = 9 + nf + n * d;
  if (tok.size() != want) return "SUBMIT argument count mismatch";
  spec.cc.n = n;
  spec.cc.f = f;
  spec.cc.d = d;
  spec.cc.eps = eps;
  spec.cc.input_magnitude = mag;
  spec.faulty.clear();
  for (std::uint64_t i = 0; i < nf; ++i) {
    std::uint64_t p = 0;
    if (!cli::parse_count(tok[9 + i], p) || p >= n) return "bad faulty id";
    spec.faulty.push_back(p);
  }
  spec.inputs.clear();
  std::size_t at = 9 + nf;
  for (std::uint64_t p = 0; p < n; ++p) {
    geo::Vec v(d);
    for (std::uint64_t k = 0; k < d; ++k) {
      if (!cli::parse_real(tok[at++], v[k])) return "bad input coordinate";
    }
    spec.inputs.push_back(std::move(v));
  }
  return "";
}

/// The robustness counters, once, into whichever consumer asks: the STATS
/// text reply and the obs::Registry JSON both read from here so they can
/// never disagree.
struct NodeCounters {
  std::vector<std::pair<std::string, std::uint64_t>> vals;

  void add(const char* name, std::uint64_t v) { vals.emplace_back(name, v); }

  std::string to_stats_line() const {
    std::ostringstream os;
    os << "STATS";
    for (const auto& [k, v] : vals) os << ' ' << k << '=' << v;
    return os.str();
  }

  void to_registry(obs::Registry& reg) const {
    for (const auto& [k, v] : vals) {
      // Counters are monotonic; gauges carry the rest (high-water marks
      // and point-in-time depths can move both ways across epochs).
      reg.gauge("node." + k).set(static_cast<double>(v));
    }
  }
};

NodeCounters collect_counters(const transport::TcpTransport& tcp,
                              const transport::FaultyTransport& faulty,
                              const transport::NodeRuntime& node) {
  NodeCounters c;
  const transport::TcpTransport::Stats& t = tcp.stats();
  c.add("dials", t.dials);
  c.add("accepts", t.accepts);
  c.add("conn_errors", t.conn_errors);
  c.add("frames_sent", t.frames_sent);
  c.add("frames_dropped", t.frames_dropped);
  c.add("frames_received", t.frames_received);
  c.add("frames_corrupted", t.frames_corrupted);
  c.add("outq_hwm_bytes", t.outq_hwm_bytes);
  const transport::FaultyTransport::Stats& f = faulty.stats();
  c.add("inj_drops", f.injected_drops);
  c.add("inj_dups", f.injected_dups);
  c.add("inj_delays", f.injected_delays);
  c.add("inj_released", f.released);
  c.add("inj_parked", faulty.parked());
  const net::ShimStats s = node.shim_stats();
  c.add("rel_data_sent", s.data_sent);
  c.add("rel_retransmits", s.retransmits);
  c.add("rel_delivered", s.delivered);
  c.add("rel_dups_suppressed", s.dups_suppressed);
  c.add("rel_stale_epoch_dropped", s.stale_epoch_dropped);
  c.add("rel_channel_resets", s.channel_resets);
  c.add("rel_channels_abandoned", s.channels_abandoned);
  c.add("instances", node.instance_count());
  c.add("decided", node.decided_count());
  return c;
}

std::string format_status(const transport::NodeRuntime::InstanceStatus& s) {
  if (!s.known) return "UNKNOWN";
  if (s.failed) return "FAILED";
  if (!s.decided) return "RUNNING " + std::to_string(s.round);
  std::ostringstream os;
  os.precision(17);
  const std::size_t d = s.decision.empty() ? 0 : s.decision[0].dim();
  os << "DECIDED " << s.round << ' ' << s.decision.size() << ' ' << d;
  for (const geo::Vec& v : s.decision) {
    for (std::size_t k = 0; k < v.dim(); ++k) os << ' ' << v[k];
  }
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t id = UINT64_MAX;
  std::uint64_t epoch = 0;
  std::uint64_t client_port = 0;
  double time_scale = 2e-3;
  double clock_rate = 1.0;
  std::string cluster_spec;
  std::string trace_dir;

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
    bool ok = true;
    if (arg == "--id") ok = cli::parse_count(next(), id);
    else if (arg == "--cluster") cluster_spec = next();
    else if (arg == "--client-port") ok = cli::parse_count(next(), client_port);
    else if (arg == "--epoch") ok = cli::parse_count(next(), epoch);
    else if (arg == "--trace-dir") trace_dir = next();
    else if (arg == "--time-scale") {
      ok = cli::parse_real(next(), time_scale) && time_scale > 0.0;
    } else if (arg == "--clock-rate") {
      ok = cli::parse_real(next(), clock_rate) && clock_rate > 0.0;
    }
    else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      usage();
      return 2;
    }
    if (!ok || client_port > 65535) {
      std::cerr << "bad value for " << arg << "\n";
      usage();
      return 2;
    }
  }

  std::string err;
  const std::vector<transport::PeerAddr> cluster =
      transport::parse_cluster_spec(cluster_spec, &err);
  if (cluster.empty()) {
    std::cerr << "bad --cluster: " << err << "\n";
    usage();
    return 2;
  }
  if (id >= cluster.size()) {
    std::cerr << "--id must index into --cluster\n";
    usage();
    return 2;
  }

  install_signal_handlers();

  try {
    transport::TcpTransport tcp(id, cluster,
                                static_cast<std::uint32_t>(epoch));
    transport::FaultyTransport faulty(tcp);
    transport::NodeConfig ncfg;
    ncfg.id = id;
    ncfg.n = cluster.size();
    ncfg.epoch = static_cast<std::uint32_t>(epoch);
    ncfg.time_scale = time_scale;
    ncfg.clock_rate = clock_rate;
    ncfg.trace_dir = trace_dir;
    transport::NodeRuntime node(ncfg, faulty);
    transport::LineServer rpc(static_cast<std::uint16_t>(client_port));

    std::cout << "READY id=" << id << " epoch=" << epoch
              << " peer_port=" << tcp.listen_port()
              << " rpc_port=" << rpc.port() << std::endl;

    bool shutdown = false;
    const auto handler = [&](const std::string& line) -> std::string {
      const std::vector<std::string> tok = split_ws(line);
      if (tok.empty()) return "ERR empty request";
      if (tok[0] == "PING") {
        return "PONG " + std::to_string(id) + ' ' + std::to_string(epoch);
      }
      if (tok[0] == "SUBMIT") {
        transport::InstanceSpec spec;
        const std::string e = parse_submit(tok, spec);
        if (!e.empty()) return "ERR " + e;
        if (spec.cc.n != cluster.size()) return "ERR n != cluster size";
        try {
          node.start_instance(spec);
        } catch (const std::exception& ex) {
          return std::string("ERR ") + ex.what();
        }
        return "OK";
      }
      if (tok[0] == "STATUS" && tok.size() == 2) {
        std::uint64_t iid = 0;
        if (!cli::parse_count(tok[1], iid)) return "ERR bad instance id";
        return format_status(node.status(iid));
      }
      if (tok[0] == "STATUS" && tok.size() == 1) {
        return collect_counters(tcp, faulty, node).to_stats_line();
      }
      if (tok[0] == "METRICS") {
        obs::Registry reg;
        collect_counters(tcp, faulty, node).to_registry(reg);
        reg.gauge("node.model_now").set(node.model_now());
        reg.gauge("node.clock_rate").set(clock_rate);
        return reg.to_json();
      }
      if (tok[0] == "NEMESIS") {
        if (tok.size() < 2) return "ERR bad nemesis spec";
        if (tok.size() == 2 && tok[1] == "OFF") {
          faulty.clear_schedule();
          node.set_nemesis_phases({});
          return "OK";
        }
        const auto spec = transport::parse_nemesis_spec(
            line.substr(line.find("NEMESIS") + 8));
        if (!spec) return "ERR bad nemesis spec";
        faulty.set_schedule(spec->schedule, spec->anchor_realtime_sec,
                            spec->seed, spec->time_scale);
        // Instances started from here on declare the adversary in their
        // trace headers, so chc_check sees what the run actually faced.
        node.set_nemesis_phases(
            transport::to_header_phases(spec->schedule));
        return "OK";
      }
      if (tok[0] == "SHUTDOWN") {
        shutdown = true;
        return "BYE";
      }
      return "ERR unknown request";
    };

    while (!shutdown && g_stop_signal == 0) {
      rpc.poll(0, handler);
      // step() sleeps up to 1 ms when idle, so the loop neither spins nor
      // adds meaningful latency to RPC handling.
      node.step(1);
    }
    // Clean exit on SHUTDOWN / SIGTERM / SIGINT: footers flushed, sinks
    // closed — the traces need no torn-tail tolerance. (SIGKILL skips
    // this, which is exactly its job.)
    node.shutdown();
    return 0;
  } catch (const std::exception& ex) {
    std::cerr << "chc_node: " << ex.what() << "\n";
    return 1;
  }
}
