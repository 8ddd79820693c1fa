// chc_serve: demo driver for the sharded multi-instance consensus service.
//
//   chc_serve [--instances N] [--shards S] [--seed BASE]
//             [--preset default|crash|lossy|mixed]
//             [--trace-dir DIR] [--report FILE] [--queue N]
//
// Builds a batch of N independent Algorithm CC instances according to the
// preset, runs them through svc::ConsensusService, and prints a per-instance
// summary plus aggregate throughput. With --trace-dir every instance's
// JSONL trace lands as instance_<id>.jsonl, each independently verifiable:
//
//   build/tools/chc_serve --instances 16 --shards 4 --trace-dir traces/
//   for t in traces/instance_*.jsonl; do build/tools/chc_check "$t"; done
//
// Exit status is 0 only when every instance earned the full certificate
// (quiescent + all decided + validity + agreement) — except instances the
// preset expects to fail (none of the shipped presets do).
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "core/lossy.hpp"
#include "net/policy.hpp"
#include "obs/metrics.hpp"
#include "svc/service.hpp"

namespace {

using namespace chc;

void usage() {
  std::cerr << "usage: chc_serve [--instances N] [--shards S] [--seed BASE]\n"
               "                 [--preset default|crash|lossy|mixed]\n"
               "                 [--trace-dir DIR] [--report FILE] "
               "[--queue N]\n";
}

/// Instance i of the batch under the chosen preset. `mixed` cycles crash
/// styles and puts every other instance behind the lossy preset + shim —
/// the same mix the differential and schedule-fuzz suites run.
svc::InstanceSpec make_spec(const std::string& preset, std::uint64_t i,
                            std::uint64_t seed_base) {
  svc::InstanceSpec spec;
  spec.id = i;
  spec.run.base.cc = core::CCConfig{.n = 5, .f = 1, .d = 2, .eps = 0.15};
  spec.run.base.seed = seed_base + i;
  if (preset == "default") {
    spec.run.base.crash_style = core::CrashStyle::kNone;
  } else if (preset == "crash") {
    spec.run.base.crash_style = core::CrashStyle::kMidBroadcast;
  } else if (preset == "lossy") {
    spec.run.base.crash_style = core::CrashStyle::kEarly;
    spec.run.policy = net::NetworkPolicy::lossy(0.15, 0.05, 0.10);
    spec.run.reliable = true;
  } else {  // mixed
    static constexpr core::CrashStyle kStyles[] = {
        core::CrashStyle::kNone, core::CrashStyle::kEarly,
        core::CrashStyle::kMidBroadcast, core::CrashStyle::kLate};
    spec.run.base.crash_style = kStyles[i % 4];
    if (i % 2 == 1) {
      spec.run.policy = net::NetworkPolicy::lossy(0.10, 0.03, 0.05);
      spec.run.reliable = true;
    }
  }
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t instances = 16;
  std::size_t shards = 0;  // 0: CHC_SVC_SHARDS env, then hardware_concurrency
  std::size_t queue = 64;
  std::uint64_t seed_base = 1;
  std::string preset = "mixed";
  std::string trace_dir;
  std::string report;

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
    if (arg == "--instances") instances = count();
    else if (arg == "--shards") shards = count();
    else if (arg == "--queue") queue = count();
    else if (arg == "--seed") seed_base = count();
    else if (arg == "--preset") preset = next();
    else if (arg == "--trace-dir") trace_dir = next();
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
  if (preset != "default" && preset != "crash" && preset != "lossy" &&
      preset != "mixed") {
    std::cerr << "unknown preset: " << preset << "\n";
    usage();
    return 2;
  }

  obs::Registry metrics;
  svc::ServiceConfig cfg;
  cfg.shards = shards;
  cfg.queue_capacity = queue;
  cfg.metrics = &metrics;
  cfg.trace_dir = trace_dir;

  const auto start = std::chrono::steady_clock::now();
  svc::ConsensusService service(std::move(cfg));
  std::vector<svc::InstanceSpec> batch;
  batch.reserve(instances);
  for (std::uint64_t i = 0; i < instances; ++i) {
    svc::InstanceSpec spec = make_spec(preset, i, seed_base);
    spec.trace = !trace_dir.empty();
    batch.push_back(std::move(spec));
  }
  service.submit_batch(std::move(batch));
  service.drain();
  const auto results = service.take_results();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::size_t failed = 0;
  for (const auto& r : results) {
    std::cout << (r.ok ? "ok      " : "FAILED  ") << "instance " << std::setw(3)
              << r.id << "  shard=" << r.shard
              << "  rounds=" << r.out.cert.rounds
              << "  d_H=" << r.out.cert.max_pairwise_hausdorff
              << "  dropped=" << r.out.stats.net_dropped
              << "  retransmits=" << r.out.stats.retransmits;
    if (!r.error.empty()) std::cout << "  error=" << r.error;
    std::cout << "\n";
    if (!r.ok) ++failed;
  }
  std::cout << std::fixed << std::setprecision(2) << results.size()
            << " instances on " << service.shards() << " shard(s) in " << secs
            << " s  (" << (static_cast<double>(results.size()) / secs)
            << " instances/s), " << failed << " failed\n";
  if (!trace_dir.empty()) {
    std::cout << "traces in " << trace_dir
              << "/instance_<id>.jsonl (verify with chc_check)\n";
  }

  if (!report.empty()) {
    std::ofstream rep(report);
    rep << "{\n  \"preset\": \"" << preset << "\",\n  \"instances\": "
        << results.size() << ",\n  \"shards\": " << service.shards()
        << ",\n  \"seconds\": " << secs << ",\n  \"instances_per_sec\": "
        << (static_cast<double>(results.size()) / secs)
        << ",\n  \"failed\": " << failed << ",\n  \"admitted\": "
        << metrics.counter("svc.admitted").value() << ",\n  \"rejected\": "
        << metrics.counter("svc.rejected").value()
        << ",\n  \"backpressure_waits\": "
        << metrics.counter("svc.backpressure_waits").value() << "\n}\n";
  }
  return failed == 0 ? 0 : 1;
}
