#include "dsm/stable_vector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <set>

#include "common/check.hpp"
#include "dsm/store.hpp"
#include "sim/simulation.hpp"

namespace chc::dsm {
namespace {

/// Host process running exactly one stable-vector instance.
class SvHost final : public sim::Process {
 public:
  SvHost(std::size_t n, std::size_t f, geo::Vec input,
         std::vector<std::optional<StableVectorResult>>* results)
      : n_(n), f_(f), input_(std::move(input)), results_(results) {}

  void on_start(sim::Context& ctx) override {
    sv_ = std::make_unique<StableVector>(n_, f_, ctx.self());
    sv_->start(ctx, input_,
               [this](sim::Context& c, const StableVectorResult& r) {
                 (*results_)[c.self()] = r;
               });
  }

  void on_message(sim::Context& ctx, const sim::Message& msg) override {
    sv_->on_message(ctx, msg);
  }

  void on_timer(sim::Context& ctx, int token) override {
    sv_->on_timer(ctx, token);
  }

 private:
  std::size_t n_, f_;
  geo::Vec input_;
  std::vector<std::optional<StableVectorResult>>* results_;
  std::unique_ptr<StableVector> sv_;
};

struct SvRun {
  std::vector<std::optional<StableVectorResult>> results;
  std::vector<bool> crashed;
};

SvRun run_stable_vector(std::size_t n, std::size_t f,
                        const sim::CrashSchedule& cs, std::uint64_t seed,
                        std::unique_ptr<sim::DelayModel> delay = nullptr) {
  if (!delay) delay = std::make_unique<sim::UniformDelay>(0.1, 1.0);
  SvRun out;
  out.results.resize(n);
  sim::Simulation sim(n, seed, std::move(delay), cs);
  for (sim::ProcessId p = 0; p < n; ++p) {
    sim.add_process(std::make_unique<SvHost>(
        n, f, geo::Vec{static_cast<double>(p), 0.0}, &out.results));
  }
  const auto rr = sim.run();
  EXPECT_TRUE(rr.quiescent);
  out.crashed.resize(n);
  for (sim::ProcessId p = 0; p < n; ++p) out.crashed[p] = sim.crashed(p);
  return out;
}

std::set<sim::ProcessId> origins(const StableVectorResult& r) {
  std::set<sim::ProcessId> s;
  for (const auto& [o, v] : r) s.insert(o);
  return s;
}

void expect_liveness_and_containment(const SvRun& run, std::size_t n,
                                     std::size_t f) {
  std::vector<std::set<sim::ProcessId>> views;
  for (sim::ProcessId p = 0; p < n; ++p) {
    if (run.crashed[p]) continue;
    // Liveness: every non-crashed process finished with >= n - f entries.
    ASSERT_TRUE(run.results[p].has_value()) << "process " << p << " stuck";
    const auto view = origins(*run.results[p]);
    EXPECT_GE(view.size(), n - f) << "process " << p;
    // Own input must be present.
    EXPECT_TRUE(view.count(p)) << "process " << p;
    views.push_back(view);
  }
  // Containment: pairwise subset in one direction or the other.
  for (std::size_t a = 0; a < views.size(); ++a) {
    for (std::size_t b = a + 1; b < views.size(); ++b) {
      const bool ab = std::includes(views[b].begin(), views[b].end(),
                                    views[a].begin(), views[a].end());
      const bool ba = std::includes(views[a].begin(), views[a].end(),
                                    views[b].begin(), views[b].end());
      EXPECT_TRUE(ab || ba) << "containment violated between views";
    }
  }
}

TEST(GrowOnlyStore, RejectsBadQuorumConfig) {
  EXPECT_THROW(GrowOnlyStore(4, 2, 0), ContractViolation);  // n < 2f+1
  EXPECT_THROW(GrowOnlyStore(3, 1, 3), ContractViolation);  // id out of range
}

TEST(ViewHelpers, CountAndEquality) {
  View a(3), b(3);
  EXPECT_EQ(view_count(a), 0u);
  EXPECT_TRUE(view_equal(a, b));
  a[1] = geo::Vec{1.0};
  EXPECT_EQ(view_count(a), 1u);
  EXPECT_FALSE(view_equal(a, b));
  b[1] = geo::Vec{2.0};  // same mask; single-writer makes values equal in use
  EXPECT_TRUE(view_equal(a, b));
}

TEST(StableVector, FaultFreeAllSeeEverything) {
  const std::size_t n = 5, f = 1;
  const auto run = run_stable_vector(n, f, {}, 42);
  for (sim::ProcessId p = 0; p < n; ++p) {
    ASSERT_TRUE(run.results[p].has_value());
    EXPECT_EQ(origins(*run.results[p]).size(), n);  // nobody crashed
  }
  expect_liveness_and_containment(run, n, f);
}

TEST(StableVector, ValuesMatchOrigins) {
  const auto run = run_stable_vector(4, 1, {}, 7);
  for (const auto& r : run.results) {
    ASSERT_TRUE(r.has_value());
    for (const auto& [origin, value] : *r) {
      EXPECT_DOUBLE_EQ(value[0], static_cast<double>(origin));
    }
  }
}

TEST(StableVector, SurvivesEarlyCrashes) {
  const std::size_t n = 7, f = 2;
  sim::CrashSchedule cs;
  cs.set(2, sim::CrashPlan::after(3));   // dies inside its write broadcast
  cs.set(5, sim::CrashPlan::after(0));   // totally silent
  const auto run = run_stable_vector(n, f, cs, 11);
  expect_liveness_and_containment(run, n, f);
}

TEST(StableVector, SurvivesMidProtocolCrashes) {
  const std::size_t n = 7, f = 2;
  sim::CrashSchedule cs;
  cs.set(1, sim::CrashPlan::after(10));
  cs.set(3, sim::CrashPlan::at(1.5));
  const auto run = run_stable_vector(n, f, cs, 13);
  expect_liveness_and_containment(run, n, f);
}

TEST(StableVector, ContainmentPropertySweep) {
  // Property sweep: random crash budgets across many seeds; Containment and
  // Liveness must hold in every execution (this is the load-bearing
  // property for Algorithm CC's optimality).
  const std::size_t n = 5, f = 2;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    sim::CrashSchedule cs;
    cs.set((seed % n), sim::CrashPlan::after(seed % 17));
    cs.set((seed * 3 + 1) % n, sim::CrashPlan::after((seed * 7) % 23));
    const auto run = run_stable_vector(n, f, cs, 1000 + seed);
    expect_liveness_and_containment(run, n, f);
  }
}

TEST(StableVector, SlowProcessStillIncluded) {
  // A lagged (but correct) process must eventually finish and its view must
  // contain its own input; others may or may not include it.
  const std::size_t n = 5, f = 1;
  auto delay = std::make_unique<sim::PhasedLagDelay>(
      std::make_unique<sim::UniformDelay>(0.1, 1.0),
      std::set<sim::ProcessId>{4}, 40.0,
      /*until=*/std::numeric_limits<sim::Time>::infinity());
  const auto run = run_stable_vector(n, f, {}, 17, std::move(delay));
  expect_liveness_and_containment(run, n, f);
  ASSERT_TRUE(run.results[4].has_value());
}

class DoubleStart final : public sim::Process {
 public:
  explicit DoubleStart(bool* done) : done_(done) {}
  void on_start(sim::Context& ctx) override {
    StableVector sv(3, 1, ctx.self());
    sv.start(ctx, geo::Vec{0.0}, [](sim::Context&, const auto&) {});
    EXPECT_THROW(
        sv.start(ctx, geo::Vec{0.0}, [](sim::Context&, const auto&) {}),
        ContractViolation);
    *done_ = true;
  }
  void on_message(sim::Context&, const sim::Message&) override {}

 private:
  bool* done_;
};

TEST(StableVector, OneShotEnforced) {
  // Calling start twice must trip the contract.
  bool done = false;
  sim::Simulation sim(3, 1, std::make_unique<sim::FixedDelay>(1.0), {});
  sim.add_process(std::make_unique<DoubleStart>(&done));
  sim.add_process(std::make_unique<DoubleStart>(&done));
  sim.add_process(std::make_unique<DoubleStart>(&done));
  sim.run(10000);
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace chc::dsm
