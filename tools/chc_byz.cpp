// chc_byz: runs the Byzantine convex consensus (BCC) scenario matrix —
// equivocators, geometry forgers, mid-broadcast silencers and payload
// manglers — against the verified-multiset protocol, re-verifies every
// trace with the offline checker, and re-executes it bit-identically.
//
//   chc_byz --list                         show the preset matrix
//   chc_byz --preset NAME [--seed N]       one scenario run
//   chc_byz --all [--seed N]               every preset once
//   chc_byz --sweep [--seed N]             boundary matrix, 3 seeds each
//   chc_byz --fuzz N [--seed BASE]         N sampled random adversaries
//
// Every mode exits non-zero if any run fails (checker violation, replay
// divergence, or an outcome contradicting the preset's expectation — a
// deciding tuple that stalls, an n = 3f tuple that "decides" anyway).
// With --out / --out-dir the traces are written for chc_check / archival;
// by default only failing traces are written. --report writes the metrics
// registry JSON.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bcc/presets.hpp"
#include "cli.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace chc;

void usage() {
  std::cerr << "usage:\n"
               "  chc_byz --list\n"
               "  chc_byz --preset NAME [--seed N] [--out FILE]\n"
               "          [--report FILE]\n"
               "  chc_byz --all [--seed N] [--out-dir DIR] [--report FILE]\n"
               "  chc_byz --sweep [--seed N] [--out-dir DIR] [--report FILE]\n"
               "  chc_byz --fuzz N [--seed BASE] [--out-dir DIR]\n"
               "          [--report FILE]\n";
}

void write_trace(const bcc::ByzRunResult& r, const std::string& path) {
  std::ofstream out(path);
  for (const std::string& line : r.trace_lines) out << line << "\n";
}

/// Runs one preset; writes the trace when a path is given or the run
/// failed (failing traces land in out_dir, or ./ without one).
bool run_and_report(const bcc::ByzPreset& preset, std::uint64_t seed,
                    obs::Registry* metrics, const std::string& out_path,
                    const std::string& out_dir) {
  const bcc::ByzRunResult r = bcc::run_byz_preset(preset, seed, metrics);
  std::cout << bcc::summarize(r) << "\n";
  std::string path = out_path;
  if (path.empty() && (!out_dir.empty() || !r.passed)) {
    const std::string dir = out_dir.empty() ? "." : out_dir;
    path = dir + "/byz_" + r.name + "_" + std::to_string(seed) + ".jsonl";
  }
  if (!path.empty()) write_trace(r, path);
  return r.passed;
}

const char* expect_name(bcc::ByzExpectation e) {
  switch (e) {
    case bcc::ByzExpectation::kDecide:
      return "decide";
    case bcc::ByzExpectation::kRbcStall:
      return "rbc-stall";
    case bcc::ByzExpectation::kRound0Empty:
      return "round0-empty";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  std::string preset_name, out, out_dir, report;
  std::uint64_t seed = 1;
  std::uint64_t fuzz = 0;
  bool list = false, all = false, sweep = false;

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
    if (arg == "--list") list = true;
    else if (arg == "--all") all = true;
    else if (arg == "--sweep") sweep = true;
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
    for (const bcc::ByzPreset& p : bcc::byz_presets()) {
      std::cout << p.name << "  (n=" << p.n << " f=" << p.f << " d=" << p.d
                << ", " << bcc::behavior_name(p.kind) << ", expect "
                << expect_name(p.expect) << ")\n    " << p.description
                << "\n";
    }
    return 0;
  }

  if (!out_dir.empty()) std::filesystem::create_directories(out_dir);
  obs::Registry metrics;
  std::uint64_t ran = 0, failed = 0;

  if (fuzz > 0) {
    for (std::uint64_t i = 0; i < fuzz; ++i) {
      const std::uint64_t s = seed + i;
      const bcc::ByzPreset p = bcc::sample_byz_preset(s);
      ++ran;
      if (!run_and_report(p, s, &metrics, "", out_dir)) ++failed;
    }
  } else if (sweep) {
    // Resilience-boundary sweep: every preset under three seeds, so both
    // sides of n = 3f+1 and the (d+2)f+1 gap are exercised repeatedly.
    for (const bcc::ByzPreset& p : bcc::byz_presets()) {
      for (std::uint64_t k = 0; k < 3; ++k) {
        ++ran;
        if (!run_and_report(p, seed + k, &metrics, "", out_dir)) ++failed;
      }
    }
  } else if (all) {
    for (const bcc::ByzPreset& p : bcc::byz_presets()) {
      ++ran;
      if (!run_and_report(p, seed, &metrics, "", out_dir)) ++failed;
    }
  } else if (!preset_name.empty()) {
    const bcc::ByzPreset* p = bcc::find_byz_preset(preset_name);
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
  std::cout << (ran - failed) << "/" << ran << " byzantine runs passed\n";
  return failed == 0 ? 0 : 1;
}
