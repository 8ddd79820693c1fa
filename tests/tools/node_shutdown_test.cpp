// SIGTERM / SIGINT clean-shutdown regression for the real node binary,
// and its SUBMIT validation.
//
// A terminated chc_node must exit 0 with its trace footers flushed: the
// recorded trace then passes the offline checker WITHOUT the torn-tail
// tolerance the checker extends to SIGKILLed live traces. This pins the
// difference between the two exits — SIGKILL legitimately tears the last
// line; SIGTERM/SIGINT must not.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/checker.hpp"
#include "transport/rpc.hpp"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

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

pid_t spawn_node(std::size_t id, const std::string& cluster,
                 std::uint16_t rpc_port, const std::string& trace_dir) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  ::execl(CHC_TOOL_NODE_BIN, "chc_node", "--id", std::to_string(id).c_str(),
          "--cluster", cluster.c_str(), "--client-port",
          std::to_string(rpc_port).c_str(), "--trace-dir", trace_dir.c_str(),
          static_cast<char*>(nullptr));
  _exit(127);
}

std::vector<std::string> read_lines(const fs::path& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(NodeShutdown, TermAndIntFlushFootersNoTornTailNeeded) {
  const fs::path trace_dir =
      fs::temp_directory_path() /
      ("chc_node_shutdown_" + std::to_string(::getpid()));
  fs::remove_all(trace_dir);
  fs::create_directories(trace_dir);

  constexpr std::size_t kN = 3;
  std::string cluster;
  for (std::size_t i = 0; i < kN; ++i) {
    if (i > 0) cluster += ',';
    cluster += "127.0.0.1:" + std::to_string(reserve_port());
  }
  std::vector<std::uint16_t> rpc_ports;
  std::vector<pid_t> pids;
  for (std::size_t i = 0; i < kN; ++i) rpc_ports.push_back(reserve_port());
  for (std::size_t i = 0; i < kN; ++i) {
    pids.push_back(spawn_node(i, cluster, rpc_ports[i], trace_dir.string()));
    ASSERT_GT(pids.back(), 0);
  }

  // Connect to each node's RPC port (retry while it boots) and submit one
  // instance: n=3 f=0 d=1, inputs 0.1 / 0.5 / 0.9.
  const std::string submit =
      "SUBMIT 0 3 0 1 0.15 7 1 0 0.1 0.5 0.9";
  std::vector<chc::transport::LineClient> rpc(kN);
  const auto boot_dl = Clock::now() + std::chrono::seconds(10);
  for (std::size_t i = 0; i < kN; ++i) {
    while (!rpc[i].connected() && Clock::now() < boot_dl) {
      if (!rpc[i].connect_to("127.0.0.1", rpc_ports[i], 200)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    ASSERT_TRUE(rpc[i].connected()) << "node " << i << " never came up";
    const auto reply = rpc[i].request(submit, 2000);
    ASSERT_TRUE(reply.has_value() && *reply == "OK")
        << "node " << i << ": " << reply.value_or("<no reply>");
  }

  // Wait until every node reports a decision.
  const auto decide_dl = Clock::now() + std::chrono::seconds(30);
  for (std::size_t i = 0; i < kN; ++i) {
    bool decided = false;
    while (!decided && Clock::now() < decide_dl) {
      const auto reply = rpc[i].request("STATUS 0", 2000);
      decided = reply.has_value() && reply->rfind("DECIDED", 0) == 0;
      if (!decided) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    EXPECT_TRUE(decided) << "node " << i << " never decided";
  }

  // The regression proper: SIGTERM two nodes, SIGINT the third. All must
  // exit 0 (clean shutdown path, not a crash or the default-terminate
  // path of an unhandled signal).
  ASSERT_EQ(::kill(pids[0], SIGTERM), 0);
  ASSERT_EQ(::kill(pids[1], SIGTERM), 0);
  ASSERT_EQ(::kill(pids[2], SIGINT), 0);
  for (std::size_t i = 0; i < kN; ++i) {
    int status = 0;
    ASSERT_EQ(::waitpid(pids[i], &status, 0), pids[i]);
    EXPECT_TRUE(WIFEXITED(status)) << "node " << i << " did not exit";
    EXPECT_EQ(WEXITSTATUS(status), 0) << "node " << i;
  }

  // Every per-node trace must end in a footer and pass the checker with
  // no torn tail: truncated_tail flags the SIGKILL tolerance kicking in,
  // which a clean shutdown must never need.
  for (std::size_t i = 0; i < kN; ++i) {
    const fs::path trace =
        trace_dir / ("i0_node" + std::to_string(i) + "_e0.jsonl");
    ASSERT_TRUE(fs::exists(trace)) << trace;
    const std::vector<std::string> lines = read_lines(trace);
    ASSERT_GT(lines.size(), 2u) << trace;
    EXPECT_NE(lines.back().find("\"kind\":\"footer\""), std::string::npos)
        << trace << " does not end in a footer";
    const chc::obs::CheckReport report =
        chc::obs::check_trace_lines(lines);
    EXPECT_TRUE(report.ok())
        << trace << ": "
        << (report.parsed ? chc::obs::describe(report.violations.front())
                          : report.parse_error);
    EXPECT_FALSE(report.truncated_tail) << trace;
  }

  fs::remove_all(trace_dir);
}

TEST(NodeRpc, SubmitRejectsNonFiniteAndOutOfRangeNumbers) {
  const fs::path trace_dir =
      fs::temp_directory_path() /
      ("chc_node_nonfinite_" + std::to_string(::getpid()));
  fs::remove_all(trace_dir);
  fs::create_directories(trace_dir);

  constexpr std::size_t kN = 2;
  const std::string cluster = "127.0.0.1:" + std::to_string(reserve_port()) +
                              ",127.0.0.1:" + std::to_string(reserve_port());
  std::vector<std::uint16_t> rpc_ports;
  std::vector<pid_t> pids;
  for (std::size_t i = 0; i < kN; ++i) rpc_ports.push_back(reserve_port());
  for (std::size_t i = 0; i < kN; ++i) {
    pids.push_back(spawn_node(i, cluster, rpc_ports[i], trace_dir.string()));
    ASSERT_GT(pids.back(), 0);
  }

  // n=2 f=0 d=1: magnitude inf, eps inf, and a NaN input coordinate. The
  // last line's faulty-id count wraps the expected token count around to
  // 10, the length of the line itself.
  const char* kBad[] = {"SUBMIT 1 2 0 1 0.1 7 inf 0 0.1 0.2",
                        "SUBMIT 2 2 0 1 inf 7 1 0 0.1 0.2",
                        "SUBMIT 3 2 0 1 0.1 7 1 0 nan 0.2",
                        "SUBMIT 4 2 0 4 0.1 7 1 18446744073709551609 0"};
  std::vector<chc::transport::LineClient> rpc(kN);
  const auto boot_dl = Clock::now() + std::chrono::seconds(10);
  for (std::size_t i = 0; i < kN; ++i) {
    while (!rpc[i].connected() && Clock::now() < boot_dl) {
      if (!rpc[i].connect_to("127.0.0.1", rpc_ports[i], 200)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    ASSERT_TRUE(rpc[i].connected()) << "node " << i << " never came up";
    for (const char* submit : kBad) {
      const auto reply = rpc[i].request(submit, 2000);
      ASSERT_TRUE(reply.has_value()) << "node " << i << ": " << submit;
      EXPECT_EQ(reply->rfind("ERR", 0), 0u)
          << "node " << i << ": " << submit << " -> " << *reply;
    }
  }

  // The nodes stay up and shut down cleanly.
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(::kill(pids[i], SIGTERM), 0);
  for (std::size_t i = 0; i < kN; ++i) {
    int status = 0;
    ASSERT_EQ(::waitpid(pids[i], &status, 0), pids[i]);
    EXPECT_TRUE(WIFEXITED(status)) << "node " << i << " did not exit";
    EXPECT_EQ(WEXITSTATUS(status), 0) << "node " << i;
  }
  fs::remove_all(trace_dir);
}

}  // namespace
