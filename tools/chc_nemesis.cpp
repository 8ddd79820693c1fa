// chc_nemesis: runs nemesis fault scenarios (partitions, heal, crash-
// recover, delay storms, churn) against Algorithm CC, writes the JSONL
// traces, and verifies every run with the offline invariant checker.
//
//   chc_nemesis --list                         show the preset matrix
//   chc_nemesis --preset NAME [--seed N]       one scenario run
//   chc_nemesis --all [--seed N]               every preset once
//   chc_nemesis --fuzz N [--seed BASE]         N random composed scenarios
//
// Every mode exits non-zero if any run fails (checker violation, or the
// outcome contradicts the preset's expectation — e.g. a healed partition
// that never decides, or an over-budget scenario that "decides" anyway).
// With --out / --out-dir the traces are written for chc_check / archival;
// by default only failing traces are written (those are the interesting
// ones). --report writes the metrics registry JSON.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "nemesis/presets.hpp"
#include "nemesis/runner.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace chc;

void usage() {
  std::cerr << "usage:\n"
               "  chc_nemesis --list\n"
               "  chc_nemesis --preset NAME [--seed N] [--out FILE]\n"
               "              [--report FILE]\n"
               "  chc_nemesis --all [--seed N] [--out-dir DIR]\n"
               "              [--report FILE]\n"
               "  chc_nemesis --fuzz N [--seed BASE] [--out-dir DIR]\n"
               "              [--report FILE]\n";
}

void write_trace(const nemesis::ScenarioResult& r, const std::string& path) {
  std::ofstream out(path);
  for (const std::string& line : r.trace_lines) out << line << "\n";
}

/// Runs one preset; writes the trace when a path is given or the run
/// failed (failing traces land next to out_dir, or ./ without one).
bool run_and_report(const nemesis::Preset& preset, std::uint64_t seed,
                    obs::Registry* metrics, const std::string& out_path,
                    const std::string& out_dir) {
  const nemesis::ScenarioResult r = nemesis::run_preset(preset, seed, metrics);
  std::cout << nemesis::summarize(r) << "\n";
  std::string path = out_path;
  if (path.empty() && (!out_dir.empty() || !r.passed)) {
    const std::string dir = out_dir.empty() ? "." : out_dir;
    path = dir + "/nemesis_" + r.name + "_" + std::to_string(seed) + ".jsonl";
  }
  if (!path.empty()) write_trace(r, path);
  return r.passed;
}

}  // namespace

int main(int argc, char** argv) {
  std::string preset_name, out, out_dir, report;
  std::uint64_t seed = 1;
  std::size_t fuzz = 0;
  bool list = false, all = false;

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
    if (arg == "--list") list = true;
    else if (arg == "--all") all = true;
    else if (arg == "--preset") preset_name = next();
    else if (arg == "--seed") seed = count();
    else if (arg == "--fuzz") fuzz = count();
    else if (arg == "--out") out = next();
    else if (arg == "--out-dir") out_dir = next();
    else if (arg == "--report") report = next();
    else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      usage();
      return 2;
    }
  }

  if (list) {
    for (const nemesis::Preset& p : nemesis::presets()) {
      std::cout << p.name << "  (n=" << p.n << " f=" << p.f << " d=" << p.d
                << ", expect "
                << (p.expect_decide ? "decide" : "stall-safe") << ")\n    "
                << p.description << "\n";
    }
    return 0;
  }

  if (!out_dir.empty()) std::filesystem::create_directories(out_dir);
  obs::Registry metrics;
  std::size_t ran = 0, failed = 0;

  if (fuzz > 0) {
    for (std::size_t i = 0; i < fuzz; ++i) {
      const std::uint64_t s = seed + i;
      const nemesis::Preset p = nemesis::sample_preset(s);
      ++ran;
      if (!run_and_report(p, s, &metrics, "", out_dir)) ++failed;
    }
  } else if (all) {
    for (const nemesis::Preset& p : nemesis::presets()) {
      ++ran;
      if (!run_and_report(p, seed, &metrics, "", out_dir)) ++failed;
    }
  } else if (!preset_name.empty()) {
    const nemesis::Preset* p = nemesis::find_preset(preset_name);
    if (p == nullptr) {
      std::cerr << "unknown preset: " << preset_name << " (try --list)\n";
      return 2;
    }
    ++ran;
    if (!run_and_report(*p, seed, &metrics, out, out_dir)) ++failed;
  } else {
    usage();
    return 2;
  }

  if (!report.empty()) {
    std::ofstream rep(report);
    rep << metrics.to_json() << "\n";
  }
  std::cout << (ran - failed) << "/" << ran << " scenario runs passed\n";
  return failed == 0 ? 0 : 1;
}
