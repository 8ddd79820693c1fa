// E10 — Algorithm CC on fair-lossy networks: the reliable-channel shim's
// recovery cost.
//
// Sweeps drop rate x dup rate (reordering on throughout) over seeds. For
// each cell the shimmed configuration must certify on every seed — the
// paper's channel model is fully restored — while the per-run retransmit,
// message and completion-time columns price that restoration. The final
// column runs the same adversary WITHOUT the shim: the fraction of runs
// that still decide collapses as soon as drops bite, demonstrating the
// injected faults are real.
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/check.hpp"
#include "core/lossy.hpp"
#include "core/report.hpp"
#include "obs/metrics.hpp"

using namespace chc;

int main(int argc, char** argv) {
  bench::init_output(argc, argv);
  const bool quick = bench::quick_mode(argc, argv);
  // --report FILE: one run-report JSON object per shimmed run (JSONL) —
  // the machine-readable companion to the printed table; CI archives it.
  const std::string report_path = bench::flag_value(argc, argv, "--report");
  std::ofstream report_out;
  if (!report_path.empty()) {
    report_out.open(report_path);
    if (!report_out.is_open()) {
      std::cerr << "cannot open " << report_path << "\n";
      return 2;
    }
  }
  bench::print_experiment_header(
      "E10", "lossy-network sweep: recovery cost of the reliable channel");

  const std::vector<double> drops =
      quick ? std::vector<double>{0.0, 0.2} : std::vector<double>{0.0, 0.1,
                                                                  0.2, 0.3};
  const std::vector<double> dups =
      quick ? std::vector<double>{0.0} : std::vector<double>{0.0, 0.1};
  const std::size_t seeds = quick ? 3 : 10;

  Table t({"drop", "dup", "runs", "certified", "avg_retx", "avg_msgs",
           "avg_end_t", "raw_decided"});
  bool all_certified = true;

  for (const double drop : drops) {
    for (const double dup : dups) {
      std::size_t certified = 0, raw_decided = 0;
      double sum_retx = 0.0, sum_msgs = 0.0, sum_end = 0.0;
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        core::LossyRunConfig lc;
        lc.base.cc = core::CCConfig{.n = 5, .f = 1, .d = 2, .eps = 0.1};
        lc.base.crash_style = core::CrashStyle::kMidBroadcast;
        lc.base.seed = 4000 + seed;
        lc.policy = net::NetworkPolicy::lossy(drop, dup, /*reorder=*/0.1);

        obs::Registry metrics;
        if (report_out.is_open()) lc.metrics = &metrics;
        const auto out = core::run_cc_lossy(lc);
        if (report_out.is_open()) {
          report_out << core::run_report_json(out, &metrics) << "\n";
        }
        if (out.quiescent && out.cert.all_decided && out.cert.validity &&
            out.cert.agreement) {
          ++certified;
        }
        sum_retx += static_cast<double>(out.stats.retransmits);
        sum_msgs += static_cast<double>(out.stats.messages_sent);
        sum_end += out.stats.end_time;

        lc.reliable = false;
        lc.metrics = nullptr;
        try {
          const auto raw = core::run_cc_lossy(lc);
          if (raw.cert.all_decided) ++raw_decided;
        } catch (const ContractViolation&) {
          // A duplicated message reached CCProcess's reliable-channel
          // invariant — the rawest form of "delivery violated".
        }
      }
      if (certified != seeds) all_certified = false;
      const auto inv = 1.0 / static_cast<double>(seeds);
      t.add_row({Table::num(drop, 2), Table::num(dup, 2), Table::num(seeds),
                 Table::num(certified), Table::num(sum_retx * inv, 6),
                 Table::num(sum_msgs * inv, 6), Table::num(sum_end * inv, 6),
                 Table::num(raw_decided)});
    }
  }
  bench::emit(t);
  std::cout << "all shimmed runs certified: " << (all_certified ? "yes" : "NO")
            << "\n(raw_decided: runs deciding with the shim DISABLED — the "
               "drop=0 rows keep\ndeciding, lossy rows generally stall on "
               "quorum waits that are never repaired;\navg_retx counts "
               "retransmission to the mid-broadcast-crashed process too,\n"
               "which never acks — once it is silent only its oldest frame "
               "is probed,\nso it costs one frame per RTO until the retry "
               "budget runs out)\n";
  return all_certified ? 0 : 1;
}
