// Cluster runtime tests: NodeRuntime over LoopbackHub (threaded, the TSan
// target) — clean and under injected link faults — TCP reconnect with
// epoch bump, and the line RPC.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/workload.hpp"
#include "geometry/polytope.hpp"
#include "obs/checker.hpp"
#include "transport/faulty.hpp"
#include "transport/loopback.hpp"
#include "transport/node.hpp"
#include "transport/rpc.hpp"
#include "transport/tcp.hpp"

namespace chc::transport {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

bool deadline_passed(Clock::time_point dl) { return Clock::now() >= dl; }

TEST(ClusterSpec, ParsesAndRejects) {
  std::string err;
  const auto good = parse_cluster_spec("127.0.0.1:9001,localhost:9002", &err);
  ASSERT_EQ(good.size(), 2u) << err;
  EXPECT_EQ(good[0].host, "127.0.0.1");
  EXPECT_EQ(good[0].port, 9001);
  EXPECT_EQ(good[1].host, "localhost");
  EXPECT_EQ(good[1].port, 9002);

  EXPECT_TRUE(parse_cluster_spec("", &err).empty());
  EXPECT_TRUE(parse_cluster_spec("127.0.0.1", &err).empty());
  EXPECT_TRUE(parse_cluster_spec("127.0.0.1:notaport", &err).empty());
  EXPECT_TRUE(parse_cluster_spec("127.0.0.1:70000", &err).empty());
  EXPECT_TRUE(parse_cluster_spec(":9001", &err).empty());
}

/// Grabs an ephemeral port the OS is unlikely to rebind immediately.
std::uint16_t reserve_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(fd);
  return ntohs(addr.sin_port);
}

WireFrame tagged(std::uint64_t instance, std::uint8_t byte) {
  WireFrame f;
  f.kind = FrameKind::kData;
  f.instance = instance;
  f.payload = {byte};
  return f;
}

/// Pumps both transports until `want` frames arrived at `sink`, or 5 s.
std::vector<WireFrame> pump_until(TcpTransport& a, TcpTransport& sink,
                                  std::size_t want) {
  std::vector<WireFrame> got;
  const auto dl = Clock::now() + std::chrono::seconds(5);
  while (got.size() < want && !deadline_passed(dl)) {
    a.poll(2, [](NodeId, WireFrame) {});
    sink.poll(2, [&](NodeId, WireFrame f) { got.push_back(std::move(f)); });
  }
  return got;
}

TEST(Tcp, DeliversAndObservesEpochBumpOnReconnect) {
  const std::uint16_t p0 = reserve_port();
  const std::uint16_t p1 = reserve_port();
  const std::vector<PeerAddr> cluster = {{"127.0.0.1", p0},
                                         {"127.0.0.1", p1}};

  auto a = std::make_unique<TcpTransport>(0, cluster, /*epoch=*/0);
  TcpTransport b(1, cluster, /*epoch=*/0);
  EXPECT_EQ(a->listen_port(), p0);
  EXPECT_EQ(b.listen_port(), p1);

  ASSERT_TRUE(a->send(1, tagged(7, 0x11)));
  auto got = pump_until(*a, b, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].instance, 7u);
  EXPECT_EQ(got[0].payload, (codec::Buffer{0x11}));
  ASSERT_TRUE(b.peer_epoch(0).has_value());
  EXPECT_EQ(*b.peer_epoch(0), 0u);

  // Frames flow the other way on b's own outbound connection.
  ASSERT_TRUE(b.send(0, tagged(8, 0x22)));
  got = pump_until(b, *a, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].instance, 8u);
  ASSERT_TRUE(a->peer_epoch(1).has_value());

  // Crash node 0 and restart it as epoch 1: b must see the new HELLO.
  a.reset();
  a = std::make_unique<TcpTransport>(0, cluster, /*epoch=*/1);
  ASSERT_TRUE(a->send(1, tagged(9, 0x33)));
  got = pump_until(*a, b, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].instance, 9u);
  ASSERT_TRUE(b.peer_epoch(0).has_value());
  EXPECT_EQ(*b.peer_epoch(0), 1u);
  EXPECT_GE(b.stats().accepts, 2u);
}

TEST(Rpc, LineServerAnswersConcurrentClients) {
  LineServer server(0);
  ASSERT_GT(server.port(), 0);

  std::atomic<bool> stop{false};
  std::thread pump([&] {
    while (!stop.load()) {
      server.poll(5, [](const std::string& req) { return "echo:" + req; });
    }
  });

  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      LineClient cl;
      if (!cl.connect_to("127.0.0.1", server.port(), 2000)) return;
      for (int i = 0; i < 25; ++i) {
        std::string msg = "c";
        msg += std::to_string(c);
        msg += 'm';
        msg += std::to_string(i);
        const auto resp = cl.request(msg, 2000);
        if (resp && *resp == "echo:" + msg) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  stop.store(true);
  pump.join();
  EXPECT_EQ(ok.load(), 100);
}

class LoopbackClusterTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 5;
  static constexpr std::size_t kF = 1;
  static constexpr std::size_t kD = 2;
  static constexpr double kEps = 0.25;

  void SetUp() override {
    trace_dir_ = fs::temp_directory_path() /
                 ("chc_loopback_" +
                  std::to_string(::getpid() ^
                                 static_cast<unsigned>(
                                     reinterpret_cast<std::uintptr_t>(this))));
    fs::create_directories(trace_dir_);
    hub_ = std::make_unique<LoopbackHub>(kN);
    for (std::size_t i = 0; i < kN; ++i) {
      endpoints_.push_back(hub_->endpoint(i));
      runtimes_.push_back(make_runtime(i, /*epoch=*/0));
    }
  }

  void TearDown() override {
    runtimes_.clear();
    endpoints_.clear();
    std::error_code ec;
    fs::remove_all(trace_dir_, ec);
  }

  std::unique_ptr<NodeRuntime> make_runtime(std::size_t id,
                                            std::uint32_t epoch) {
    NodeConfig cfg;
    cfg.id = id;
    cfg.n = kN;
    cfg.epoch = epoch;
    cfg.time_scale = 1e-3;  // fast wall clock for tests
    cfg.trace_dir = trace_dir_.string();
    return std::make_unique<NodeRuntime>(cfg, *endpoints_[id]);
  }

  InstanceSpec make_spec(std::uint64_t iid, std::uint64_t seed) {
    const core::Workload w = core::make_workload(
        kN, kF, kD, core::InputPattern::kUniform, seed);
    InstanceSpec spec;
    spec.id = iid;
    spec.cc.n = kN;
    spec.cc.f = kF;
    spec.cc.d = kD;
    spec.cc.eps = kEps;
    spec.cc.input_magnitude = std::max(1.0, w.correct_magnitude);
    spec.seed = seed;
    spec.inputs = w.inputs;
    spec.faulty = w.faulty;
    return spec;
  }

  /// Starts one stepping thread per runtime; each runs until every live
  /// node has decided `iid` (decided nodes keep stepping — peers still
  /// need their store/ack traffic). Returns false on timeout.
  bool run_until_all_decide(std::uint64_t iid, int timeout_sec) {
    const std::size_t live = runtimes_.size();
    std::atomic<std::size_t> decided{0};
    std::atomic<bool> give_up{false};
    std::vector<std::thread> threads;
    for (auto& rt : runtimes_) {
      NodeRuntime* node = rt.get();
      threads.emplace_back([&, node] {
        bool counted = false;
        while (decided.load() < live && !give_up.load()) {
          node->step(1);
          if (!counted && node->status(iid).decided) {
            counted = true;
            decided.fetch_add(1);
          }
        }
      });
    }
    const auto dl = Clock::now() + std::chrono::seconds(timeout_sec);
    while (decided.load() < live && !deadline_passed(dl)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    give_up.store(true);
    for (auto& t : threads) t.join();
    return decided.load() == live;
  }

  void expect_agreement(std::uint64_t iid) {
    std::vector<geo::Polytope> decisions;
    for (auto& rt : runtimes_) {
      const auto st = rt->status(iid);
      ASSERT_TRUE(st.decided);
      ASSERT_FALSE(st.decision.empty());
      decisions.push_back(geo::Polytope::from_points(st.decision));
    }
    for (std::size_t a = 0; a + 1 < decisions.size(); ++a) {
      for (std::size_t b = a + 1; b < decisions.size(); ++b) {
        EXPECT_LE(geo::hausdorff(decisions[a], decisions[b]), kEps + 1e-9)
            << "nodes " << a << " and " << b << " disagree";
      }
    }
  }

  fs::path trace_dir_;
  std::unique_ptr<LoopbackHub> hub_;
  std::vector<std::unique_ptr<Transport>> endpoints_;
  std::vector<std::unique_ptr<NodeRuntime>> runtimes_;
};

TEST_F(LoopbackClusterTest, FiveNodesDecideThenSurviveCrashRestart) {
  // Wave 1: plain run to decision on all five nodes.
  const InstanceSpec i1 = make_spec(1, 11);
  for (auto& rt : runtimes_) rt->start_instance(i1);
  ASSERT_TRUE(run_until_all_decide(1, 60)) << "wave 1 stalled";
  expect_agreement(1);

  // Crash node 0: endpoint destruction closes its mailbox, exactly like a
  // dead TCP peer. Restart as epoch 1 with an empty queue.
  runtimes_[0].reset();
  endpoints_[0].reset();
  endpoints_[0] = hub_->endpoint(0);
  runtimes_[0] = make_runtime(0, /*epoch=*/1);

  // Wave 2: a fresh instance submitted to everyone, including the
  // restarted incarnation — full-rejoin proof.
  const InstanceSpec i2 = make_spec(2, 12);
  for (auto& rt : runtimes_) rt->start_instance(i2);
  ASSERT_TRUE(run_until_all_decide(2, 60)) << "wave 2 stalled after restart";
  expect_agreement(2);

  // Clean shutdown, then every per-node trace must pass the checker.
  for (auto& rt : runtimes_) rt->shutdown();
  std::size_t checked = 0;
  for (const auto& entry : fs::directory_iterator(trace_dir_)) {
    if (entry.path().extension() != ".jsonl") continue;
    const obs::CheckReport rep = obs::check_trace_file(entry.path().string());
    EXPECT_TRUE(rep.ok()) << entry.path() << ": "
                          << (rep.parsed && !rep.violations.empty()
                                  ? rep.violations[0].detail
                                  : rep.parse_error);
    EXPECT_EQ(rep.header.env, "live");
    ++checked;
  }
  // 5 nodes x wave 1 + 5 x wave 2 + node 0's epoch-0 trace of instance 2?
  // No: instance 2 started after the restart, so node 0 wrote e1 only.
  // Wave 1 on node 0 is an e0 trace cut off by the crash.
  EXPECT_EQ(checked, 10u);
}

TEST(AdversaryFuzz, ShimmedCcOnLoopbackHub) {
  // Real concurrent nodes under a lossy network: every endpoint drops 20%
  // and duplicates 5% of its frames, each node steps on its own thread, and
  // node 4 (the incorrect input) is destroyed once it has sent 40 frames.
  // The four survivors must decide inside the hull of the correct inputs
  // and within eps of each other.
  constexpr std::size_t kN = 5;
  constexpr std::size_t kDoomed = 4;
  const core::CCConfig cc{.n = kN, .f = 1, .d = 2, .eps = 0.15};
  const std::vector<geo::Vec> inputs = {
      geo::Vec{0.0, 0.0}, geo::Vec{1.0, 0.0}, geo::Vec{0.0, 1.0},
      geo::Vec{1.0, 1.0}, geo::Vec{1.8, 1.9}};
  const geo::Polytope correct_hull = geo::Polytope::from_points(
      {inputs[0], inputs[1], inputs[2], inputs[3]});
  net::PolicySchedule lossy;
  lossy.add(0.0, net::NetworkPolicy::lossy(0.2, 0.05));
  const double anchor = std::chrono::duration<double>(
                            std::chrono::system_clock::now().time_since_epoch())
                            .count();

  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    LoopbackHub hub(kN);
    std::vector<std::unique_ptr<Transport>> endpoints;
    std::vector<std::unique_ptr<FaultyTransport>> links;
    std::vector<std::unique_ptr<NodeRuntime>> nodes;
    InstanceSpec spec;
    spec.id = 1;
    spec.cc = cc;
    spec.seed = seed;
    spec.inputs = inputs;
    spec.faulty = {kDoomed};
    for (std::size_t i = 0; i < kN; ++i) {
      NodeConfig cfg;
      cfg.id = i;
      cfg.n = kN;
      cfg.time_scale = 1e-3;
      endpoints.push_back(hub.endpoint(i));
      links.push_back(std::make_unique<FaultyTransport>(*endpoints[i]));
      links[i]->set_schedule(lossy, anchor, seed, cfg.time_scale);
      nodes.push_back(std::make_unique<NodeRuntime>(cfg, *links[i]));
      nodes[i]->start_instance(spec);
    }

    std::atomic<std::size_t> decided{0};
    std::atomic<bool> give_up{false};
    std::atomic<bool> destroyed{false};
    std::uint64_t doomed_drops = 0;
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kN; ++i) {
      threads.emplace_back([&, i] {
        bool counted = false;
        while (decided.load() < kN - 1 && !give_up.load()) {
          nodes[i]->step(1);
          if (i == kDoomed) {
            const FaultyTransport::Stats& s = links[i]->stats();
            if (s.passed + s.injected_drops < 40) continue;
            // Crash: the node and its endpoint go away mid-protocol; the
            // hub drops every frame still addressed to it.
            doomed_drops = s.injected_drops;
            nodes[i].reset();
            links[i].reset();
            endpoints[i].reset();
            destroyed.store(true);
            return;
          }
          if (!counted && nodes[i]->status(spec.id).decided) {
            counted = true;
            decided.fetch_add(1);
          }
        }
      });
    }
    const auto dl = Clock::now() + std::chrono::seconds(60);
    while (decided.load() < kN - 1 && !deadline_passed(dl)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    give_up.store(true);
    for (auto& t : threads) t.join();
    ASSERT_EQ(decided.load(), kN - 1)
        << "seed " << seed << ": processes did not decide over the lossy "
        << "network";
    ASSERT_TRUE(destroyed.load())
        << "seed " << seed << ": node " << kDoomed
        << " was never destroyed mid-run";

    std::uint64_t drops = doomed_drops;
    std::vector<geo::Polytope> decisions;
    for (std::size_t i = 0; i < kN; ++i) {
      if (i == kDoomed) continue;
      drops += links[i]->stats().injected_drops;
      decisions.push_back(
          geo::Polytope::from_points(nodes[i]->status(spec.id).decision));
    }
    EXPECT_GT(drops, 0u) << "seed " << seed;
    for (const geo::Polytope& dec : decisions) {
      EXPECT_TRUE(correct_hull.contains(dec, 1e-6)) << "seed " << seed;
    }
    for (std::size_t a = 0; a < decisions.size(); ++a) {
      for (std::size_t b = a + 1; b < decisions.size(); ++b) {
        EXPECT_LT(geo::hausdorff(decisions[a], decisions[b]), cc.eps)
            << "seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace chc::transport
