// chc_check: offline trace checker (and replay verifier).
//
//   chc_check [options] TRACE.jsonl...
//
// For each trace: parses it, re-verifies the paper's invariants
// (obs/checker.hpp) and prints ACCEPT or REJECT with the first violating
// event's line, round and diagnostic. With --replay the run is also
// re-executed from the trace header and compared byte-for-byte — crash-CC
// traces through core/replay.hpp, Byzantine (protocol=bcc) traces through
// bcc/replay.hpp. With --against DIR each trace is also compared with the
// same-named trace in DIR, recorded from another build of the same
// execution: the line count and every line apart from `verts` must match
// (same schedule), and the largest polytope d_H between corresponding
// round0 / round / decide snapshots is printed (obs/schedule_diff.hpp).
// Exit code: 0 = all traces accepted, 1 = at least one rejected, diverged
// or rescheduled, 2 = usage / unreadable input.
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
#include "obs/schedule_diff.hpp"

namespace {

void usage() {
  std::cerr
      << "usage: chc_check [--tol T] [--max-violations N] [--replay] "
         "[--against DIR] TRACE.jsonl...\n"
         "  --tol T             geometric slack (default 1e-6)\n"
         "  --max-violations N  report up to N violations (default 16)\n"
         "  --replay            also re-execute from the header and require\n"
         "                      a byte-identical trace\n"
         "  --against DIR       also require the same-named trace in DIR to\n"
         "                      match every line apart from verts, and print\n"
         "                      the largest snapshot d_H between the two\n";
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
  std::string against;
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
    } else if (arg == "--against") {
      against = next_value(argc, argv, i);
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

    if (!against.empty()) {
      const std::string base = file.substr(file.find_last_of('/') + 1);
      const std::string other = against + "/" + base;
      std::vector<std::string> before, after;
      if (!chc::obs::read_jsonl(other, before) ||
          !chc::obs::read_jsonl(file, after)) {
        std::cout << "ERROR   " << file << ": cannot open " << other << "\n";
        return 2;
      }
      const chc::obs::ScheduleDiff sd =
          chc::obs::compare_schedules(before, after);
      if (sd.same) {
        std::cout << "SAME-SCHEDULE " << file << " (" << sd.lines
                  << " lines, " << sd.moved << " snapshots moved, max d_H "
                  << sd.max_hausdorff << ", decide d_H "
                  << sd.max_decide_hausdorff << ")\n";
      } else {
        any_bad = true;
        std::cout << "SCHEDULE-DIFF " << file << " at line "
                  << sd.first_diff_line << ": " << sd.detail << "\n";
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
