// Argument-validation parity across the CLI tools: every driver must
// reject garbage numeric values, unknown flags, and missing required
// arguments with exit code 2 and its usage text — never an uncaught
// std::stoul exception (a crash with exit 134/139) and never a silent
// misparse like "5x" -> 5.
//
// Each tool's binary path is injected at compile time via the
// CHC_TOOL_*_BIN definitions in tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <sys/wait.h>

namespace {

struct CmdResult {
  int exit_code = -1;
  std::string output;  ///< stdout + stderr interleaved
};

CmdResult run_cmd(const std::string& cmd) {
  CmdResult r;
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 4096> buf;
  std::size_t got = 0;
  while ((got = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    r.output.append(buf.data(), got);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

struct ToolCase {
  const char* name;
  const char* bin;
  /// A numeric option each tool accepts, to feed garbage into.
  const char* numeric_opt;
};

const ToolCase kTools[] = {
    {"chc_byz", CHC_TOOL_BYZ_BIN, "--seed"},
    {"chc_nemesis", CHC_TOOL_NEMESIS_BIN, "--seed"},
    {"chc_record", CHC_TOOL_RECORD_BIN, "--seed"},
    {"chc_cluster", CHC_TOOL_CLUSTER_BIN, "--nodes"},
    {"chc_check", CHC_TOOL_CHECK_BIN, "--max-violations"},
    {"chc_serve", CHC_TOOL_SERVE_BIN, "--instances"},
};

TEST(CliArgs, GarbageNumericValueExitsTwoWithDiagnostic) {
  for (const ToolCase& t : kTools) {
    for (const char* bad : {"5x", "x", "-3", "", "99999999999999999999999"}) {
      const CmdResult r = run_cmd(std::string(t.bin) + " " +
                                  t.numeric_opt + " '" + bad + "'");
      EXPECT_EQ(r.exit_code, 2)
          << t.name << " " << t.numeric_opt << " '" << bad
          << "' -> exit " << r.exit_code << "\n" << r.output;
      EXPECT_NE(r.output.find("needs a non-negative integer"),
                std::string::npos)
          << t.name << " '" << bad << "': " << r.output;
      EXPECT_NE(r.output.find("usage"), std::string::npos)
          << t.name << " '" << bad << "': " << r.output;
    }
  }
}

TEST(CliArgs, UnknownFlagExitsTwoWithUsage) {
  for (const ToolCase& t : kTools) {
    const CmdResult r = run_cmd(std::string(t.bin) + " --definitely-bogus");
    EXPECT_EQ(r.exit_code, 2) << t.name << ": " << r.output;
    EXPECT_NE(r.output.find("usage"), std::string::npos)
        << t.name << ": " << r.output;
  }
}

TEST(CliArgs, MissingOptionValueExitsTwo) {
  for (const ToolCase& t : kTools) {
    const CmdResult r =
        run_cmd(std::string(t.bin) + " " + t.numeric_opt);
    EXPECT_EQ(r.exit_code, 2) << t.name << ": " << r.output;
    EXPECT_NE(r.output.find("needs a value"), std::string::npos)
        << t.name << ": " << r.output;
  }
}

TEST(CliArgs, GarbageRealValueExitsTwo) {
  struct RealCase {
    const char* bin;
    const char* opt;
  };
  for (const RealCase& c :
       {RealCase{CHC_TOOL_RECORD_BIN, "--eps"},
        RealCase{CHC_TOOL_CLUSTER_BIN, "--soak"},
        RealCase{CHC_TOOL_CHECK_BIN, "--tol"}}) {
    for (const char* bad : {"1.5x", "nan", "x", ""}) {
      const CmdResult r =
          run_cmd(std::string(c.bin) + " " + c.opt + " '" + bad + "'");
      EXPECT_EQ(r.exit_code, 2)
          << c.opt << " '" << bad << "': " << r.output;
      EXPECT_NE(r.output.find("needs a finite number"), std::string::npos)
          << c.opt << " '" << bad << "': " << r.output;
    }
  }
}

TEST(CliArgs, NodeRejectsBadValuesAndBareInvocation) {
  // chc_node shares the tools' strict parser: whole-value, finite reals,
  // exit 2 + usage on garbage. The time scale and clock rate must also be
  // positive; those cases come with a valid --id / --cluster, so a value
  // that slipped through would start a node (the timeout bounds that).
  for (const char* bad_args :
       {"--id 5x", "--client-port 70000", "--time-scale x",
        "--definitely-bogus", "--id", "",
        "--id 0 --cluster 127.0.0.1:1 --time-scale nan",
        "--id 0 --cluster 127.0.0.1:1 --time-scale -1",
        "--id 0 --cluster 127.0.0.1:1 --clock-rate inf"}) {
    const CmdResult r = run_cmd("timeout 10 " +
                                std::string(CHC_TOOL_NODE_BIN) + " " +
                                bad_args);
    EXPECT_EQ(r.exit_code, 2) << "chc_node " << bad_args << ": "
                              << r.output;
    EXPECT_NE(r.output.find("usage"), std::string::npos)
        << "chc_node " << bad_args << ": " << r.output;
  }
}

TEST(CliArgs, NoModeExitsTwoWithUsage) {
  // Tools that require a mode/required argument print usage and exit 2
  // when invoked bare. (chc_serve and chc_cluster run with defaults, so
  // they are exercised via the bad-value cases above instead.)
  for (const char* bin : {CHC_TOOL_BYZ_BIN, CHC_TOOL_NEMESIS_BIN,
                          CHC_TOOL_RECORD_BIN, CHC_TOOL_CHECK_BIN}) {
    const CmdResult r = run_cmd(bin);
    EXPECT_EQ(r.exit_code, 2) << bin << ": " << r.output;
    EXPECT_NE(r.output.find("usage"), std::string::npos)
        << bin << ": " << r.output;
  }
}

TEST(CliArgs, CheckReportsMalformedTraceWithExitTwo) {
  // A wrongly typed header field is a malformed trace: ERROR and exit 2,
  // never an abort on an uncaught exception (exit 134).
  const std::string path = testing::TempDir() + "chc_check_malformed.jsonl";
  {
    std::ofstream out(path);
    out << "{\"kind\":\"header\",\"version\":1,\"env\":\"sim\","
           "\"n\":\"five\",\"f\":1,\"d\":1,\"eps\":0.5,"
           "\"inputs\":[[0],[1],[2],[3],[4]]}\n";
  }
  const CmdResult r = run_cmd(std::string(CHC_TOOL_CHECK_BIN) + " " + path);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("ERROR"), std::string::npos) << r.output;
  std::remove(path.c_str());
}

TEST(CliArgs, CheckAgainstComparesSameNamedTraces) {
  // --against DIR: the same-named trace in DIR must match every line
  // apart from verts (exit 0, SAME-SCHEDULE); any other change exits 1
  // (SCHEDULE-DIFF), and a missing counterpart is unreadable input (2).
  const std::string dir = testing::TempDir() + "chc_check_against";
  ASSERT_EQ(run_cmd("mkdir -p " + dir + "/before " + dir + "/after").exit_code,
            0);
  const std::string before = dir + "/before/t.jsonl";
  const std::string after = dir + "/after/t.jsonl";
  const CmdResult rec = run_cmd(std::string(CHC_TOOL_RECORD_BIN) +
                                " --preset default --seed 7 --out " + before);
  ASSERT_EQ(rec.exit_code, 0) << rec.output;
  ASSERT_EQ(run_cmd("cp " + before + " " + after).exit_code, 0);

  const std::string check = std::string(CHC_TOOL_CHECK_BIN) + " --against " +
                            dir + "/before ";
  CmdResult r = run_cmd(check + after);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("SAME-SCHEDULE"), std::string::npos) << r.output;

  // Drop the footer: one line fewer is a different schedule.
  ASSERT_EQ(run_cmd("sed -i '$d' " + after).exit_code, 0);
  r = run_cmd(check + after);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("SCHEDULE-DIFF"), std::string::npos) << r.output;

  r = run_cmd(std::string(CHC_TOOL_CHECK_BIN) + " --against " + dir +
              "/nowhere " + before);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("ERROR"), std::string::npos) << r.output;
  run_cmd("rm -rf " + dir);
}

TEST(CliArgs, HelpExitsZero) {
  for (const ToolCase& t : kTools) {
    const CmdResult r = run_cmd(std::string(t.bin) + " --help");
    EXPECT_EQ(r.exit_code, 0) << t.name << ": " << r.output;
    EXPECT_NE(r.output.find("usage"), std::string::npos) << t.name;
  }
}

}  // namespace
