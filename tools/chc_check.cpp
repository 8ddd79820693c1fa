// chc_check: offline trace checker (and replay verifier).
//
//   chc_check [options] TRACE.jsonl...
//
// For each trace: parses it, re-verifies the paper's invariants
// (obs/checker.hpp) and prints ACCEPT or REJECT with the first violating
// event's line, round and diagnostic. With --replay the run is also
// re-executed from the trace header and compared byte-for-byte — crash-CC
// traces through core/replay.hpp, Byzantine (protocol=bcc) traces through
// bcc/replay.hpp. Exit code: 0 = all traces accepted, 1 = at least one
// rejected or diverged, 2 = usage / unreadable input.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bcc/replay.hpp"
#include "cli.hpp"
#include "core/replay.hpp"
#include "obs/checker.hpp"

namespace {

void usage() {
  std::cerr
      << "usage: chc_check [--tol T] [--max-violations N] [--replay] "
         "TRACE.jsonl...\n"
         "  --tol T             geometric slack (default 1e-6)\n"
         "  --max-violations N  report up to N violations (default 16)\n"
         "  --replay            also re-execute from the header and require\n"
         "                      a byte-identical trace\n";
}

std::string next_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::cerr << argv[i] << " needs a value\n";
    usage();
    std::exit(2);
  }
  return argv[++i];
}

}  // namespace

int main(int argc, char** argv) {
  chc::obs::CheckOptions opts;
  bool replay = false;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tol") {
      opts.tol = chc::cli::real_arg(arg, next_value(argc, argv, i), usage);
    } else if (arg == "--max-violations") {
      opts.max_violations =
          chc::cli::count_arg(arg, next_value(argc, argv, i), usage);
    } else if (arg == "--replay") {
      replay = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n";
      usage();
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    usage();
    return 2;
  }

  bool any_bad = false;
  for (const std::string& file : files) {
    const chc::obs::CheckReport report =
        chc::obs::check_trace_file(file, opts);
    if (!report.parsed) {
      std::cout << "ERROR   " << file << ": " << report.parse_error << "\n";
      return 2;
    }
    // One summary shape for both verdicts (obs::summary_line), so skipped
    // containments and truncation never vanish from a rejecting run.
    if (report.ok()) {
      std::cout << "ACCEPT  " << file << " (" << chc::obs::summary_line(report)
                << ")\n";
    } else {
      any_bad = true;
      std::cout << "REJECT  " << file << " (" << chc::obs::summary_line(report)
                << "; " << report.violations.size() << " violation(s):)\n";
      for (const auto& v : report.violations) {
        std::cout << "  " << chc::obs::describe(v) << "\n";
      }
    }

    if (replay) {
      if (report.header.env == "live") {
        // Live cluster traces record real wall-clock interleavings; the
        // header says so (env=live) precisely because they cannot be
        // re-executed from a seed. Safety was still checked above.
        std::cout << "REPLAY-SKIP  " << file
                  << " (live trace: not seed-replayable)\n";
        continue;
      }
      const chc::core::ReplayResult rr =
          report.header.protocol == "bcc"
              ? chc::bcc::replay_trace_file(file)
              : chc::core::replay_trace_file(file);
      if (!rr.ran) {
        std::cout << "REPLAY-ERROR " << file << ": " << rr.error << "\n";
        any_bad = true;
      } else if (rr.identical) {
        std::cout << "REPLAY-OK    " << file << " (" << rr.replayed_lines
                  << " lines bit-identical)\n";
      } else {
        any_bad = true;
        std::cout << "REPLAY-DIFF  " << file << " at line "
                  << rr.first_diff_line << ":\n  original: " << rr.expected
                  << "\n  replayed: " << rr.actual << "\n";
      }
    }
  }
  return any_bad ? 1 : 0;
}
