// Run-level checks of the algebraic shortcuts in the round pipeline:
//  * L groups identical operands (geo::linear_combination). Every decision
//    of a real run must match an ungrouped replay: the run's transition
//    matrices (Theorem 1) applied to the recorded h0 through
//    geo::linear_combination_pairwise, which sums every operand in turn;
//  * Γ(X_i) is computed once per distinct round-0 view (the per-thread
//    memo behind geo::intersection_of_subset_hulls_memoized).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/analysis.hpp"
#include "core/harness.hpp"
#include "core/lossy.hpp"
#include "geometry/intern.hpp"
#include "geometry/ops.hpp"

namespace chc::core {
namespace {

/// v[t] = M[t]···M[1] v[0] (eq. 5) from the recorded h0, every row product
/// through the ungrouped pairwise L. Mirrors replay_matrix_evolution.
std::vector<geo::Polytope> replay_ungrouped(const TraceCollector& trace,
                                            std::size_t t, double rel_tol) {
  const auto ms = build_transition_matrices(trace);
  std::optional<geo::Polytope> fallback;
  for (sim::ProcessId p = 0; p < trace.n() && !fallback; ++p) {
    fallback = trace.of(p).h0;
  }
  EXPECT_TRUE(fallback.has_value());
  std::vector<geo::Polytope> v;
  for (sim::ProcessId p = 0; p < trace.n(); ++p) {
    v.push_back(trace.of(p).h0.value_or(*fallback));
  }
  for (std::size_t tau = 1; tau <= t; ++tau) {
    std::vector<geo::Polytope> next;
    for (std::size_t i = 0; i < trace.n(); ++i) {
      std::vector<geo::Polytope> polys;
      std::vector<double> weights;
      for (std::size_t k = 0; k < trace.n(); ++k) {
        if (ms[tau - 1][i][k] > 0.0) {
          polys.push_back(v[k]);
          weights.push_back(ms[tau - 1][i][k]);
        }
      }
      next.push_back(geo::linear_combination_pairwise(polys, weights, rel_tol));
    }
    v = std::move(next);
  }
  return v;
}

/// The checker's resolution-limited predicate (obs/checker.cpp): at most d
/// vertices, or a diameter within ten collapse slacks.
bool resolution_limited(const geo::Polytope& p, std::size_t d, double slack) {
  const auto& vs = p.vertices();
  if (vs.size() <= d) return true;
  double diam = 0.0;
  for (std::size_t a = 0; a < vs.size(); ++a) {
    for (std::size_t b = a + 1; b < vs.size(); ++b) {
      diam = std::max(diam, vs[a].dist(vs[b]));
    }
  }
  return diam <= 10.0 * slack;
}

void expect_decisions_match_ungrouped_replay(const RunConfig& rc) {
  const RunOutput out = run_cc_once(rc);
  ASSERT_TRUE(out.cert.all_decided && out.cert.validity && out.cert.agreement);
  const TraceCollector& trace = *out.trace;
  const std::size_t t_end = rc.cc.t_end();
  ASSERT_LE(t_end, trace.max_round());
  const std::vector<geo::Polytope> v =
      replay_ungrouped(trace, t_end, rc.cc.rel_tol);

  const double magnitude = std::max(
      1.0, std::max(rc.cc.input_magnitude, out.workload.correct_magnitude));
  const double slack = 1e-4 * magnitude;  // the checker's collapse slack
  std::size_t compared = 0;
  for (sim::ProcessId p : out.correct) {
    const auto& decision = trace.of(p).decision;
    if (!decision) continue;
    ++compared;
    const double bound = resolution_limited(*decision, rc.cc.d, slack)
                             ? slack
                             : 1e-9 * magnitude;
    EXPECT_LE(geo::hausdorff(*decision, v[p]), bound) << "process " << p;
  }
  EXPECT_GT(compared, 0u);
}

RunConfig oracle_config(std::size_t d, CrashStyle style, std::uint64_t seed) {
  RunConfig rc;
  rc.cc = CCConfig{.n = d + 4, .f = 1, .d = d, .eps = 0.3};
  rc.crash_style = style;
  rc.seed = seed;
  return rc;
}

class UngroupedOracle : public ::testing::TestWithParam<std::size_t> {};

TEST_P(UngroupedOracle, DecisionsMatchPairwiseReplayEveryCrashStyle) {
  const std::size_t d = GetParam();
  for (CrashStyle style : {CrashStyle::kNone, CrashStyle::kEarly,
                           CrashStyle::kMidBroadcast, CrashStyle::kLate}) {
    SCOPED_TRACE(::testing::Message()
                 << "d=" << d << " style=" << static_cast<int>(style));
    expect_decisions_match_ungrouped_replay(
        oracle_config(d, style, 40 + d));
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, UngroupedOracle, ::testing::Values(1u, 2u, 3u));

TEST(UngroupedOracleLagged, DecisionsMatchPairwiseReplay) {
  // One slow correct process: views differ, so rounds combine distinct
  // states and grouping merges only part of each multiset.
  RunConfig rc = oracle_config(2, CrashStyle::kMidBroadcast, 7);
  rc.delay = DelayRegime::kLaggedOneCorrect;
  expect_decisions_match_ungrouped_replay(rc);
}

// ---------------------------------------------------------------------
// One Γ per distinct round-0 view.
// ---------------------------------------------------------------------

bool same_points(const dsm::StableVectorResult& a,
                 const dsm::StableVectorResult& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const geo::Vec& x = a[i].second;
    const geo::Vec& y = b[i].second;
    if (x.dim() != y.dim()) return false;
    for (std::size_t c = 0; c < x.dim(); ++c) {
      if (std::bit_cast<std::uint64_t>(x[c]) !=
          std::bit_cast<std::uint64_t>(y[c])) {
        return false;
      }
    }
  }
  return true;
}

TEST(GammaPerView, MissesEqualDistinctRound0Views) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    LossyRunConfig lc;
    lc.base.cc = CCConfig{.n = 8, .f = 1, .d = 3, .eps = 0.15};
    lc.base.seed = seed;
    lc.reliable = false;  // reliable links, no shim
    geo::clear_intern_caches();
    const LossyRunOutput out = run_cc_lossy(lc);
    ASSERT_TRUE(out.cert.all_decided);
    const geo::InternStats s = geo::intern_stats();

    std::vector<dsm::StableVectorResult> distinct;
    std::uint64_t calls = 0;
    for (sim::ProcessId p = 0; p < out.trace->n(); ++p) {
      for (const ProcessTrace& inc : out.trace->incarnations(p)) {
        if (!inc.round0_view) continue;
        ++calls;
        const auto seen = [&](const dsm::StableVectorResult& v) {
          return same_points(v, *inc.round0_view);
        };
        if (std::none_of(distinct.begin(), distinct.end(), seen)) {
          distinct.push_back(*inc.round0_view);
        }
      }
    }
    EXPECT_EQ(s.subset_hull_misses, distinct.size());
    EXPECT_EQ(s.subset_hull_hits + s.subset_hull_misses, calls);
  }
  geo::clear_intern_caches();
}

TEST(SharedStates, OneViewRunSharesOneRepresentationPerRound) {
  // Every process ends round 0 with one view, so every state of the run is
  // one value; the processes, their messages and the trace must hold
  // copies of one polytope, not deep copies of it.
  LossyRunConfig lc;
  lc.base.cc = CCConfig{.n = 8, .f = 1, .d = 3, .eps = 0.15};
  lc.base.seed = 1;
  lc.base.delay = DelayRegime::kUniform;
  lc.reliable = false;  // reliable links, no shim
  const LossyRunOutput out = run_cc_lossy(lc);
  ASSERT_TRUE(out.cert.all_decided);
  const TraceCollector& tr = *out.trace;

  std::optional<dsm::StableVectorResult> view;
  for (sim::ProcessId p = 0; p < tr.n(); ++p) {
    const auto& v = tr.of(p).round0_view;
    if (!v) continue;
    if (!view) view = v;
    ASSERT_TRUE(same_points(*v, *view)) << "precondition: one view, p=" << p;
  }
  ASSERT_TRUE(view.has_value());

  for (std::size_t t = 1; t <= tr.max_round(); ++t) {
    SCOPED_TRACE(t);
    const std::vector<geo::Vec>* shared = nullptr;
    for (sim::ProcessId p = 0; p < tr.n(); ++p) {
      const auto it = tr.of(p).h.find(t);
      if (it == tr.of(p).h.end()) continue;
      if (shared == nullptr) shared = &it->second.vertices();
      EXPECT_EQ(&it->second.vertices(), shared) << "p=" << p;
    }
  }
  for (sim::ProcessId p : tr.decided()) {
    const ProcessTrace& pt = tr.of(p);
    ASSERT_FALSE(pt.h.empty());
    EXPECT_EQ(&pt.decision->vertices(), &pt.h.rbegin()->second.vertices())
        << "p=" << p;
  }
}

}  // namespace
}  // namespace chc::core
