// Schedule-exploration fuzzer: permutes cross-instance interleavings and
// re-checks each instance independently.
//
// A fixed batch of lossy/crashy instances is pushed through the service
// under seeded permutations of (submission order, shard count, queue
// capacity) — each permutation yields a different cross-instance
// interleaving of shard workers over their per-thread memo tables. For
// every schedule:
//   * each instance's decisions must be bit-identical to the reference
//     (solo semantics — interleaving must be invisible), and
//   * each instance's trace stream must independently pass the offline
//     invariant checker (obs::checker): validity, union-form round
//     containment, Lemma 3 contraction, ε-agreement, the I_Z floor.
//
// Seed count defaults to a quick local sweep; the nightly deep-fuzz CI job
// raises it via CHC_SVC_FUZZ_SEEDS (100 seeds).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/lossy.hpp"
#include "geometry/polytope.hpp"
#include "net/policy.hpp"
#include "obs/checker.hpp"
#include "svc/service.hpp"

namespace chc::svc {
namespace {

std::size_t fuzz_seeds() {
  if (const char* env = std::getenv("CHC_SVC_FUZZ_SEEDS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 6;
}

/// The fixed batch every schedule permutes: mixed crash styles and lossy
/// presets in d = 2 (the adversary-fuzz envelope, smaller rates so every
/// instance decides quickly).
std::vector<InstanceSpec> make_batch() {
  static constexpr core::CrashStyle kStyles[] = {
      core::CrashStyle::kNone, core::CrashStyle::kEarly,
      core::CrashStyle::kMidBroadcast, core::CrashStyle::kLate};
  std::vector<InstanceSpec> specs;
  for (std::uint64_t i = 0; i < 8; ++i) {
    InstanceSpec spec;
    spec.id = i;
    spec.run.base.cc = core::CCConfig{.n = 5, .f = 1, .d = 2, .eps = 0.15};
    spec.run.base.crash_style = kStyles[i % 4];
    spec.run.base.seed = 900 + i;
    if (i % 2 == 1) {
      spec.run.policy = net::NetworkPolicy::lossy(0.10, 0.03, 0.05);
      spec.run.reliable = true;
    } else {
      spec.run.reliable = false;
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Reference decisions, established once through a single-shard service
/// (the differential suite ties single-shard to solo bit-for-bit).
std::map<std::uint64_t, std::vector<std::vector<geo::Vec>>> reference_decisions(
    const std::vector<InstanceSpec>& specs) {
  std::map<std::uint64_t, std::vector<std::vector<geo::Vec>>> ref;
  for (const InstanceResult& r : run_batch(specs, /*shards=*/1)) {
    std::vector<std::vector<geo::Vec>> per_process;
    for (sim::ProcessId p = 0; p < r.out.trace->n(); ++p) {
      const auto& dec = r.out.trace->of(p).decision;
      per_process.push_back(dec.has_value() ? dec->vertices()
                                            : std::vector<geo::Vec>{});
    }
    ref.emplace(r.id, std::move(per_process));
  }
  return ref;
}

bool same_vertices(const std::vector<geo::Vec>& a,
                   const std::vector<geo::Vec>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

TEST(ScheduleFuzz, PermutedInterleavingsPreserveResultsAndInvariants) {
  const std::vector<InstanceSpec> batch = make_batch();
  const auto ref = reference_decisions(batch);
  const std::size_t seeds = fuzz_seeds();

  for (std::size_t s = 0; s < seeds; ++s) {
    Rng rng(7000 + s);
    // A seeded schedule: shuffled submission order, random shard count and
    // a small queue bound so admission interleaves with execution.
    std::vector<InstanceSpec> specs = batch;
    for (std::size_t i = specs.size(); i > 1; --i) {
      const std::size_t j =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(i) - 1));
      std::swap(specs[i - 1], specs[j]);
    }
    ServiceConfig cfg;
    cfg.shards = static_cast<std::size_t>(rng.uniform_int(1, 4));
    cfg.queue_capacity = static_cast<std::size_t>(rng.uniform_int(1, 3));
    const std::string ctx = "schedule seed " + std::to_string(7000 + s) +
                            " shards=" + std::to_string(cfg.shards) +
                            " cap=" + std::to_string(cfg.queue_capacity);

    ConsensusService service(std::move(cfg));
    for (InstanceSpec& spec : specs) service.submit(std::move(spec));
    service.drain();
    const std::vector<InstanceResult> results = service.take_results();
    ASSERT_EQ(results.size(), batch.size()) << ctx;

    for (const InstanceResult& r : results) {
      const std::string ictx = ctx + " instance=" + std::to_string(r.id);
      ASSERT_TRUE(r.error.empty()) << ictx << ": " << r.error;
      EXPECT_TRUE(r.ok) << ictx;

      // Interleaving must be invisible in the decisions.
      const auto& expected = ref.at(r.id);
      for (sim::ProcessId p = 0; p < r.out.trace->n(); ++p) {
        const auto& dec = r.out.trace->of(p).decision;
        const std::vector<geo::Vec> got =
            dec.has_value() ? dec->vertices() : std::vector<geo::Vec>{};
        EXPECT_TRUE(same_vertices(got, expected[p]))
            << ictx << " process " << p;
      }

      // Each per-instance trace stream is independently verifiable.
      const obs::CheckReport report = obs::check_trace_lines(r.trace_lines);
      EXPECT_TRUE(report.ok())
          << ictx << ": "
          << (report.parsed ? obs::describe(report.violations.front())
                            : report.parse_error);
      EXPECT_GT(report.snapshots_checked, 0u) << ictx;
    }
  }
}

}  // namespace
}  // namespace chc::svc
