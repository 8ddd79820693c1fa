// Service throughput bench: instances/sec of the sharded multi-instance
// consensus service vs. shard count, plus an admission batch-size sweep.
//
// The default workload is the schedule-fuzzer's mixed batch (n=5 f=1 d=2,
// alternating crash styles, every other instance behind the lossy preset
// with the reliable shim) — the "many concurrent small instances" regime
// the service exists for. Writes BENCH_service.json; run via
// bench/run_benches.sh, whose --check mode gates the 1->4 shard scaling
// ratio (>= 2x on machines with >= 4 hardware threads — on fewer cores the
// requirement degrades, recorded in the JSON via hardware_concurrency).
//
// Every timed pass starts with empty geometry memos (a fresh service has
// fresh shard threads, and the caller's memos are cleared), so each
// configuration pays the same cold-memo cost; each pass runs twice and
// keeps the best (machine-noise guard), mirroring google-benchmark's
// repetition policy.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/lossy.hpp"
#include "geometry/intern.hpp"
#include "net/policy.hpp"
#include "svc/service.hpp"

namespace {

using namespace chc;

std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* env = std::getenv(name)) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

std::vector<svc::InstanceSpec> make_batch(std::size_t instances,
                                          std::uint64_t seed_base) {
  static constexpr core::CrashStyle kStyles[] = {
      core::CrashStyle::kNone, core::CrashStyle::kEarly,
      core::CrashStyle::kMidBroadcast, core::CrashStyle::kLate};
  std::vector<svc::InstanceSpec> specs;
  specs.reserve(instances);
  for (std::uint64_t i = 0; i < instances; ++i) {
    svc::InstanceSpec spec;
    spec.id = i;
    spec.run.base.cc = core::CCConfig{.n = 5, .f = 1, .d = 2, .eps = 0.15};
    spec.run.base.crash_style = kStyles[i % 4];
    spec.run.base.seed = seed_base + i;
    if (i % 2 == 1) {
      spec.run.policy = net::NetworkPolicy::lossy(0.10, 0.03, 0.05);
      spec.run.reliable = true;
    } else {
      spec.run.reliable = false;
    }
    spec.trace = false;  // throughput of consensus itself, not trace IO
    specs.push_back(std::move(spec));
  }
  return specs;
}

struct Sample {
  double seconds = 0.0;
  double instances_per_sec = 0.0;
  std::size_t ok = 0;
};

/// One timed drain of the batch on `shards` shards. Cold caches, best of
/// `repeats` passes.
Sample run_timed(const std::vector<svc::InstanceSpec>& batch,
                 std::size_t shards, std::size_t queue_capacity,
                 std::size_t chunk, std::size_t repeats) {
  Sample best;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    geo::clear_intern_caches();
    const auto start = std::chrono::steady_clock::now();
    svc::ServiceConfig cfg;
    cfg.shards = shards;
    cfg.queue_capacity = queue_capacity;
    svc::ConsensusService service(std::move(cfg));
    // Admission in `chunk`-sized batches (the batch-size sweep's knob).
    std::vector<svc::InstanceSpec> pending;
    for (const svc::InstanceSpec& spec : batch) {
      pending.push_back(spec);
      if (pending.size() == chunk) {
        service.submit_batch(std::move(pending));
        pending.clear();
      }
    }
    if (!pending.empty()) service.submit_batch(std::move(pending));
    service.drain();
    const auto results = service.take_results();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    Sample s;
    s.seconds = secs;
    s.instances_per_sec = static_cast<double>(batch.size()) / secs;
    for (const auto& r : results) {
      if (r.ok) ++s.ok;
    }
    if (s.instances_per_sec > best.instances_per_sec) best = s;
  }
  return best;
}

std::string fmt(double v) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_service.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_service [--out FILE]\n"
                   "  CHC_SVC_BENCH_INSTANCES  batch size (default 48)\n"
                   "  CHC_SVC_BENCH_REPEATS    passes per config (default 2)\n";
      return 2;
    }
  }

  const std::size_t instances = env_size("CHC_SVC_BENCH_INSTANCES", 48);
  const std::size_t repeats = env_size("CHC_SVC_BENCH_REPEATS", 2);
  const unsigned hw = std::thread::hardware_concurrency();
  const std::vector<svc::InstanceSpec> batch = make_batch(instances, 9000);

  const std::size_t shard_counts[] = {1, 2, 4};
  std::vector<std::pair<std::size_t, Sample>> shard_sweep;
  std::cout << "== service shard sweep (" << instances << " instances, hw="
            << hw << ") ==\n";
  for (const std::size_t shards : shard_counts) {
    const Sample s = run_timed(batch, shards, /*queue_capacity=*/64,
                               /*chunk=*/instances, repeats);
    shard_sweep.emplace_back(shards, s);
    std::cout << "shards=" << shards << "  " << fmt(s.instances_per_sec)
              << " instances/s  (" << fmt(s.seconds) << " s, " << s.ok << "/"
              << instances << " ok)\n";
  }
  const double scaling =
      shard_sweep.back().second.instances_per_sec /
      shard_sweep.front().second.instances_per_sec;
  std::cout << "scaling 1->4 shards: " << fmt(scaling) << "x\n";

  // Batch-size sweep at the widest shard count: admission granularity and
  // queue bound shrink together, so small batches exercise backpressure.
  const std::size_t batch_sizes[] = {1, 8, 32};
  std::vector<std::pair<std::size_t, Sample>> batch_sweep;
  std::cout << "== admission batch-size sweep (shards=4) ==\n";
  for (const std::size_t bs : batch_sizes) {
    const Sample s = run_timed(batch, /*shards=*/4, /*queue_capacity=*/bs,
                               /*chunk=*/bs, repeats);
    batch_sweep.emplace_back(bs, s);
    std::cout << "batch=" << bs << "  " << fmt(s.instances_per_sec)
              << " instances/s  (" << fmt(s.seconds) << " s)\n";
  }

  std::ofstream out(out_path);
  out << "{\n";
  out << "  \"workload\": {\"n\": 5, \"f\": 1, \"d\": 2, \"eps\": 0.15, "
      << "\"instances\": " << instances
      << ", \"mix\": \"4 crash styles, half lossy+shim\"},\n";
  out << "  \"hardware_concurrency\": " << hw << ",\n";
  out << "  \"repeats\": " << repeats << ",\n";
  out << "  \"shard_sweep\": [\n";
  for (std::size_t i = 0; i < shard_sweep.size(); ++i) {
    const auto& [shards, s] = shard_sweep[i];
    out << "    {\"shards\": " << shards << ", \"seconds\": " << fmt(s.seconds)
        << ", \"instances_per_sec\": " << fmt(s.instances_per_sec)
        << ", \"ok\": " << s.ok << "}"
        << (i + 1 < shard_sweep.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"batch_sweep\": [\n";
  for (std::size_t i = 0; i < batch_sweep.size(); ++i) {
    const auto& [bs, s] = batch_sweep[i];
    out << "    {\"batch\": " << bs << ", \"seconds\": " << fmt(s.seconds)
        << ", \"instances_per_sec\": " << fmt(s.instances_per_sec) << "}"
        << (i + 1 < batch_sweep.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"scaling_4_over_1\": " << fmt(scaling) << "\n";
  out << "}\n";
  std::cout << "wrote " << out_path << "\n";

  // Every instance of the clean/shimmed mix must have earned its
  // certificate — a throughput number over broken runs is meaningless.
  for (const auto& [shards, s] : shard_sweep) {
    if (s.ok != instances) {
      std::cerr << "error: " << (instances - s.ok) << " instances failed at "
                << shards << " shards\n";
      return 1;
    }
  }
  return 0;
}
