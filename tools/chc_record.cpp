// chc_record: runs Algorithm CC executions with structured tracing on and
// writes JSONL traces (plus an optional run report) for chc_check / CI.
//
//   chc_record --out FILE [options]            one traced run
//   chc_record --fuzz N --out-dir DIR [opts]   N sampled lossy adversaries
//
// Presets cover the acceptance matrix: a default fault-free-ish run, a
// crash-faulty run, and a lossy run behind the reliable-channel shim. The
// fuzz mode mirrors the adversary fuzzer's sampling envelope
// (tests/net/adversary_fuzz_test.cpp): drop in [0.02, 0.30], dup in
// [0, 0.10], reorder in [0, 0.20], random crash style and delay regime,
// always shimmed so every execution decides.
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "common/rng.hpp"
#include "core/lossy.hpp"
#include "core/report.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace chc;

void usage() {
  std::cerr
      << "usage:\n"
         "  chc_record --out FILE [--preset default|crash|lossy]\n"
         "             [--seed N] [--n N --f N --d D --eps E]\n"
         "             [--crash none|early|mid|late]\n"
         "             [--delay uniform|exp|lagged-faulty|lagged-one]\n"
         "             [--drop P --dup P --reorder P] [--unreliable]\n"
         "             [--report FILE]\n"
         "  chc_record --fuzz N --out-dir DIR [--seed BASE]\n";
}

struct Cli {
  std::string out;
  std::string out_dir;
  std::string report;
  std::string preset = "default";
  std::uint64_t seed = 1;
  std::size_t fuzz = 0;
  core::LossyRunConfig lc;
  bool have_crash = false, have_delay = false, have_policy = false;
  bool unreliable = false;
};

bool parse_crash(const std::string& s, core::CrashStyle& out) {
  if (s == "none") out = core::CrashStyle::kNone;
  else if (s == "early") out = core::CrashStyle::kEarly;
  else if (s == "mid") out = core::CrashStyle::kMidBroadcast;
  else if (s == "late") out = core::CrashStyle::kLate;
  else return false;
  return true;
}

bool parse_delay(const std::string& s, core::DelayRegime& out) {
  if (s == "uniform") out = core::DelayRegime::kUniform;
  else if (s == "exp") out = core::DelayRegime::kExponential;
  else if (s == "lagged-faulty") out = core::DelayRegime::kLaggedFaulty;
  else if (s == "lagged-one") out = core::DelayRegime::kLaggedOneCorrect;
  else return false;
  return true;
}

/// One traced execution; returns false when the certificate is incomplete
/// (still writes the trace — failing traces are exactly the interesting
/// ones to archive).
bool record_one(const core::LossyRunConfig& lc, const std::string& path,
                const std::string& report_path) {
  obs::JsonlFileSink sink(path);
  obs::Tracer tracer(&sink);
  obs::Registry metrics;
  core::LossyRunConfig traced = lc;
  traced.tracer = &tracer;
  traced.metrics = &metrics;

  const core::Workload workload = core::make_workload(
      traced.base.cc.n, traced.base.cc.f, traced.base.cc.d,
      traced.base.pattern, traced.base.seed,
      traced.base.cc.fault_model == core::FaultModel::kCrashIncorrectInputs);
  const core::LossyRunOutput out = core::run_cc_lossy_custom(traced, workload);
  sink.flush();

  if (!report_path.empty()) {
    std::ofstream rep(report_path);
    rep << core::run_report_json(out, &metrics) << "\n";
  }

  const bool ok = out.quiescent && out.cert.all_decided &&
                  out.cert.validity && out.cert.agreement;
  std::cout << (ok ? "ok      " : "FAILED  ") << path
            << " seed=" << lc.base.seed << " rounds=" << out.cert.rounds
            << " d_H=" << out.cert.max_pairwise_hausdorff
            << " dropped=" << out.stats.net_dropped
            << " retransmits=" << out.stats.retransmits << "\n";
  return ok;
}

core::LossyRunConfig fuzz_config(std::uint64_t seed) {
  Rng rng(seed);
  core::LossyRunConfig lc;
  lc.base.cc = core::CCConfig{.n = 5, .f = 1, .d = 2, .eps = 0.15};
  lc.base.seed = seed;
  const double drop = rng.uniform(0.02, 0.30);
  const double dup = rng.uniform(0.0, 0.10);
  const double reorder = rng.uniform(0.0, 0.20);
  static constexpr core::CrashStyle kStyles[] = {
      core::CrashStyle::kNone, core::CrashStyle::kEarly,
      core::CrashStyle::kMidBroadcast, core::CrashStyle::kLate};
  lc.base.crash_style = kStyles[rng.uniform_int(0, 3)];
  lc.base.delay = rng.bernoulli(0.5) ? core::DelayRegime::kUniform
                                     : core::DelayRegime::kExponential;
  lc.policy = net::NetworkPolicy::lossy(drop, dup, reorder);
  lc.reliable = true;
  return lc;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.lc.base.cc = core::CCConfig{.n = 5, .f = 1, .d = 2, .eps = 0.15};

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    const auto count = [&] { return cli::count_arg(arg, next(), usage); };
    const auto real = [&] { return cli::real_arg(arg, next(), usage); };
    if (arg == "--out") cli.out = next();
    else if (arg == "--out-dir") cli.out_dir = next();
    else if (arg == "--report") cli.report = next();
    else if (arg == "--preset") cli.preset = next();
    else if (arg == "--seed") cli.seed = count();
    else if (arg == "--fuzz") cli.fuzz = count();
    else if (arg == "--n") cli.lc.base.cc.n = count();
    else if (arg == "--f") cli.lc.base.cc.f = count();
    else if (arg == "--d") cli.lc.base.cc.d = count();
    else if (arg == "--eps") cli.lc.base.cc.eps = real();
    else if (arg == "--crash") {
      cli.have_crash = true;
      if (!parse_crash(next(), cli.lc.base.crash_style)) {
        std::cerr << "bad --crash value\n";
        return 2;
      }
    } else if (arg == "--delay") {
      cli.have_delay = true;
      if (!parse_delay(next(), cli.lc.base.delay)) {
        std::cerr << "bad --delay value\n";
        return 2;
      }
    } else if (arg == "--drop") {
      cli.have_policy = true;
      cli.lc.policy.link.drop_rate = real();
    } else if (arg == "--dup") {
      cli.have_policy = true;
      cli.lc.policy.link.dup_rate = real();
    } else if (arg == "--reorder") {
      cli.have_policy = true;
      cli.lc.policy.link.reorder_rate = real();
    } else if (arg == "--unreliable") {
      cli.unreliable = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      usage();
      return 2;
    }
  }

  if (cli.fuzz > 0) {
    if (cli.out_dir.empty()) {
      usage();
      return 2;
    }
    std::filesystem::create_directories(cli.out_dir);
    std::size_t failed = 0;
    for (std::size_t i = 0; i < cli.fuzz; ++i) {
      const std::uint64_t seed = cli.seed + i;
      const core::LossyRunConfig lc = fuzz_config(seed);
      const std::string path =
          cli.out_dir + "/trace_" + std::to_string(seed) + ".jsonl";
      if (!record_one(lc, path, "")) ++failed;
    }
    std::cout << (cli.fuzz - failed) << "/" << cli.fuzz
              << " fuzz runs earned the full certificate\n";
    return failed == 0 ? 0 : 1;
  }

  if (cli.out.empty()) {
    usage();
    return 2;
  }

  core::LossyRunConfig lc = cli.lc;
  lc.base.seed = cli.seed;
  if (cli.preset == "default") {
    // Fault-free-looking config (f=1 but nobody crashes) on clean links.
    if (!cli.have_crash) lc.base.crash_style = core::CrashStyle::kNone;
    if (!cli.have_policy) lc.reliable = false;
  } else if (cli.preset == "crash") {
    if (!cli.have_crash) lc.base.crash_style = core::CrashStyle::kMidBroadcast;
    if (!cli.have_delay) lc.base.delay = core::DelayRegime::kLaggedOneCorrect;
    if (!cli.have_policy) lc.reliable = false;
  } else if (cli.preset == "lossy") {
    if (!cli.have_crash) lc.base.crash_style = core::CrashStyle::kEarly;
    if (!cli.have_policy) {
      lc.policy = net::NetworkPolicy::lossy(0.15, 0.05, 0.10);
    }
    lc.reliable = true;
  } else {
    std::cerr << "unknown preset: " << cli.preset << "\n";
    return 2;
  }
  if (cli.unreliable) lc.reliable = false;
  if (cli.have_policy && !cli.unreliable) lc.reliable = true;

  return record_one(lc, cli.out, cli.report) ? 0 : 1;
}
