// Differential determinism of the sharded service (the tentpole contract):
// for every spec in a sweep over shard counts {1, 2, 4}, dimensions
// d ∈ {1, 2, 3}, crash patterns and lossy presets, each batched instance's
// decision polytopes AND its full per-instance trace stream must be
// byte-identical to running that instance alone through
// core::run_cc_lossy_custom. The per-thread memo tables that concurrent
// instances on one shard share must be invisible in results.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/lossy.hpp"
#include "core/workload.hpp"
#include "geometry/polytope.hpp"
#include "net/policy.hpp"
#include "obs/trace.hpp"
#include "svc/service.hpp"

namespace chc::svc {
namespace {

struct Scenario {
  const char* name;
  core::CrashStyle crash;
  net::NetworkPolicy policy;
  bool reliable;
};

const Scenario kScenarios[] = {
    {"clean", core::CrashStyle::kNone, net::NetworkPolicy{}, false},
    {"crash-mid", core::CrashStyle::kMidBroadcast, net::NetworkPolicy{},
     false},
    {"lossy-early-crash", core::CrashStyle::kEarly,
     net::NetworkPolicy::lossy(0.15, 0.05, 0.10), true},
    // Unshimmed lossy: generally fails to decide — the differential
    // contract covers failing executions too (the truncated trace and the
    // partial state must match the solo run byte for byte).
    {"lossy-unshimmed", core::CrashStyle::kNone,
     net::NetworkPolicy::lossy(0.10, 0.0, 0.0), false},
};

core::CCConfig config_for_dim(std::size_t d) {
  switch (d) {
    case 1:
      return core::CCConfig{.n = 4, .f = 1, .d = 1, .eps = 0.05};
    case 2:
      return core::CCConfig{.n = 5, .f = 1, .d = 2, .eps = 0.15};
    default:
      return core::CCConfig{.n = 6, .f = 1, .d = 3, .eps = 0.2};
  }
}

/// The batch the sweep runs for one dimension: every scenario x seed pair,
/// ids dense from 0 so every shard count partitions them differently.
std::vector<InstanceSpec> make_batch(std::size_t d) {
  std::vector<InstanceSpec> specs;
  std::uint64_t id = 0;
  for (const Scenario& sc : kScenarios) {
    for (std::uint64_t seed : {11u, 42u, 1234u}) {
      InstanceSpec spec;
      spec.id = id++;
      spec.run.base.cc = config_for_dim(d);
      spec.run.base.crash_style = sc.crash;
      spec.run.base.seed = seed;
      spec.run.policy = sc.policy;
      spec.run.reliable = sc.reliable;
      if (!sc.reliable && sc.policy.enabled()) {
        spec.run.max_events = 2'000'000;  // raw lossy runs may stall; cap
      }
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

/// The solo baseline: exactly what the service does for one instance, but
/// alone in the process-global default configuration.
struct SoloRun {
  core::LossyRunOutput out;
  std::vector<std::string> trace_lines;
};

SoloRun run_solo(const InstanceSpec& spec) {
  SoloRun solo;
  obs::MemorySink sink;
  obs::Tracer tracer(&sink);
  core::LossyRunConfig lc = spec.run;
  lc.tracer = &tracer;
  const core::RunConfig& rc = lc.base;
  const core::Workload w = core::make_workload(
      rc.cc.n, rc.cc.f, rc.cc.d, rc.pattern, rc.seed,
      rc.cc.fault_model == core::FaultModel::kCrashIncorrectInputs);
  solo.out = core::run_cc_lossy_custom(lc, w);
  solo.trace_lines = sink.lines();
  return solo;
}

/// Bitwise equality of two optional decision polytopes.
bool same_decision(const std::optional<geo::Polytope>& a,
                   const std::optional<geo::Polytope>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  if (a->ambient_dim() != b->ambient_dim()) return false;
  if (a->vertices().size() != b->vertices().size()) return false;
  for (std::size_t i = 0; i < a->vertices().size(); ++i) {
    if (!(a->vertices()[i] == b->vertices()[i])) return false;
  }
  return true;
}

class DifferentialTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DifferentialTest, BatchedMatchesSoloBitForBit) {
  const std::size_t d = GetParam();
  const std::vector<InstanceSpec> specs = make_batch(d);

  std::vector<SoloRun> solo;
  solo.reserve(specs.size());
  for (const InstanceSpec& spec : specs) solo.push_back(run_solo(spec));

  for (std::size_t shards : {1u, 2u, 4u}) {
    std::vector<InstanceResult> results = run_batch(specs, shards);
    ASSERT_EQ(results.size(), specs.size()) << "shards=" << shards;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const InstanceResult& r = results[i];
      const SoloRun& s = solo[r.id];
      const std::string ctx = std::string("d=") + std::to_string(d) +
                              " shards=" + std::to_string(shards) +
                              " instance=" + std::to_string(r.id);
      ASSERT_TRUE(r.error.empty()) << ctx << ": " << r.error;
      EXPECT_EQ(r.ok, s.out.quiescent && s.out.cert.all_decided &&
                          s.out.cert.validity && s.out.cert.agreement)
          << ctx;
      // Decision polytopes: bitwise identical per process.
      for (sim::ProcessId p = 0; p < r.out.trace->n(); ++p) {
        EXPECT_TRUE(same_decision(r.out.trace->of(p).decision,
                                  s.out.trace->of(p).decision))
            << ctx << " process " << p;
      }
      // The whole trace stream: byte identical, line for line.
      ASSERT_EQ(r.trace_lines.size(), s.trace_lines.size()) << ctx;
      for (std::size_t l = 0; l < r.trace_lines.size(); ++l) {
        ASSERT_EQ(r.trace_lines[l], s.trace_lines[l])
            << ctx << " trace line " << l;
      }
      // Certificates agree on the quantitative story too.
      EXPECT_EQ(r.out.cert.rounds, s.out.cert.rounds) << ctx;
      EXPECT_EQ(r.out.cert.max_pairwise_hausdorff,
                s.out.cert.max_pairwise_hausdorff)
          << ctx;
      EXPECT_EQ(r.out.stats.messages_sent, s.out.stats.messages_sent) << ctx;
      EXPECT_EQ(r.out.stats.retransmits, s.out.stats.retransmits) << ctx;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, DifferentialTest, ::testing::Values(1u, 2u, 3u),
                         [](const auto& info) {
                           std::string name = "d";
                           name += std::to_string(info.param);
                           return name;
                         });

}  // namespace
}  // namespace chc::svc
