// Tests of the matrix representation (§5): transition matrices follow
// Rules 1-2, products are row stochastic, the ergodicity coefficient obeys
// eq. (12), and the matrix state evolution reproduces the actual polytope
// states (Theorem 1).
#include "core/analysis.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/harness.hpp"
#include "obs/checker.hpp"

namespace chc::core {
namespace {

RunConfig small_run_config() {
  RunConfig rc;
  // Large eps keeps t_end small so the matrix replay stays cheap.
  rc.cc = CCConfig{.n = 5, .f = 1, .d = 2, .eps = 0.5};
  rc.pattern = InputPattern::kUniform;
  rc.crash_style = CrashStyle::kMidBroadcast;
  rc.seed = 5;
  return rc;
}

TEST(Analysis, TransitionMatricesAreRowStochastic) {
  const auto out = run_cc_once(small_run_config());
  const auto ms = build_transition_matrices(*out.trace);
  ASSERT_FALSE(ms.empty());
  for (const auto& m : ms) {
    EXPECT_TRUE(is_row_stochastic(m));
  }
}

TEST(Analysis, Rule1RowsMatchMessageSets) {
  const auto out = run_cc_once(small_run_config());
  const auto ms = build_transition_matrices(*out.trace);
  const std::size_t n = out.trace->n();
  for (std::size_t t = 1; t <= ms.size(); ++t) {
    for (sim::ProcessId i = 0; i < n; ++i) {
      const auto& tr = out.trace->of(i);
      const auto it = tr.senders.find(t);
      if (it == tr.senders.end()) continue;
      const double w = 1.0 / static_cast<double>(it->second.size());
      for (sim::ProcessId k = 0; k < n; ++k) {
        const double expect = it->second.count(k) ? w : 0.0;
        EXPECT_DOUBLE_EQ(ms[t - 1][i][k], expect);
      }
    }
  }
}

TEST(Analysis, ProductsStayRowStochastic) {
  const auto out = run_cc_once(small_run_config());
  const auto ms = build_transition_matrices(*out.trace);
  for (std::size_t t = 1; t <= ms.size(); ++t) {
    EXPECT_TRUE(is_row_stochastic(matrix_product_backward(ms, t)))
        << "P[" << t << "]";
  }
}

TEST(Analysis, ErgodicityBoundEq12Holds) {
  // |P_ik[t] - P_jk[t]| <= (1 - 1/n)^t for fault-free i, j (Lemma 3).
  const auto out = run_cc_once(small_run_config());
  const auto ms = build_transition_matrices(*out.trace);
  const double n = static_cast<double>(out.trace->n());
  for (std::size_t t = 1; t <= ms.size(); ++t) {
    const auto p = matrix_product_backward(ms, t);
    const auto live = completed_round(*out.trace, t);
    const double delta = ergodicity_delta(p, live);
    const double bound = std::pow(1.0 - 1.0 / n, static_cast<double>(t));
    EXPECT_LE(delta, bound + 1e-9) << "round " << t;
  }
}

TEST(Analysis, ErgodicityDeltaShrinksOverRounds) {
  const auto out = run_cc_once(small_run_config());
  const auto ms = build_transition_matrices(*out.trace);
  ASSERT_GE(ms.size(), 2u);
  const auto live = completed_round(*out.trace, ms.size());
  const double first =
      ergodicity_delta(matrix_product_backward(ms, 1), live);
  const double last =
      ergodicity_delta(matrix_product_backward(ms, ms.size()), live);
  EXPECT_LT(last, first);
}

TEST(Analysis, Theorem1MatrixEvolutionMatchesStates) {
  // v[t] = M[t]...M[1] v[0] computed with polytope L-products must equal
  // the recorded h_i[t] for every process that completed round t.
  const auto out = run_cc_once(small_run_config());
  const std::size_t tmax = out.trace->max_round();
  for (std::size_t t = 1; t <= tmax; ++t) {
    const auto v = replay_matrix_evolution(*out.trace, t);
    for (sim::ProcessId i : completed_round(*out.trace, t)) {
      const auto& actual = out.trace->of(i).h.at(t);
      EXPECT_LT(geo::hausdorff(v[i], actual), 1e-6)
          << "process " << i << " round " << t;
    }
  }
}

TEST(Analysis, IzContainedInEveryRoundState) {
  // Lemma 6: I_Z ⊆ h_i[t] for every live process i and round t.
  const auto out = run_cc_once(small_run_config());
  const auto iz = compute_iz(*out.trace, out.correct, out.workload.faulty.size() > 0 ? 1 : 0);
  ASSERT_FALSE(iz.is_empty());
  for (sim::ProcessId i : out.correct) {
    const auto& tr = out.trace->of(i);
    ASSERT_TRUE(tr.h0.has_value());
    EXPECT_TRUE(tr.h0->contains(iz, 1e-6)) << "round 0, process " << i;
    for (const auto& [t, h] : tr.h) {
      EXPECT_TRUE(h.contains(iz, 1e-6)) << "round " << t << " process " << i;
    }
  }
}

TEST(Analysis, IzHasAtLeastNMinusFEntries) {
  const auto out = run_cc_once(small_run_config());
  // Z contains >= n - f tuples (stable vector containment, §6).
  // compute_iz checks |X_Z| > f internally; verify the views directly.
  std::size_t min_view = out.trace->n();
  for (sim::ProcessId p : out.correct) {
    min_view =
        std::min(min_view, out.trace->of(p).round0_view.value().size());
  }
  EXPECT_GE(min_view, out.trace->n() - 1);  // f = 1 here
}

TEST(Analysis, Claim1CrashedBeforeRound1HasZeroColumn) {
  // Appendix D, Claim 1: for processes k in F[1] (no round-1 message sent),
  // P_jk[t] = 0 for every live j — crashed-before-round-1 processes never
  // influence anyone's state.
  RunConfig rc = small_run_config();
  rc.crash_style = CrashStyle::kEarly;  // dies inside the stable vector
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    rc.seed = seed;
    const auto out = run_cc_once(rc);
    // F[1] here: processes that never completed round 0.
    std::vector<sim::ProcessId> f1;
    for (sim::ProcessId p = 0; p < out.trace->n(); ++p) {
      if (!out.trace->of(p).h0.has_value()) f1.push_back(p);
    }
    if (f1.empty()) continue;
    const auto ms = build_transition_matrices(*out.trace);
    for (std::size_t t = 1; t <= ms.size(); ++t) {
      const auto p = matrix_product_backward(ms, t);
      for (sim::ProcessId j : completed_round(*out.trace, t)) {
        for (sim::ProcessId k : f1) {
          EXPECT_DOUBLE_EQ(p[j][k], 0.0)
              << "seed " << seed << " t " << t << " j " << j << " k " << k;
        }
      }
    }
  }
}

TEST(Analysis, CertifyDetectsAgreementViolation) {
  // Doctor one decision to be a far-away translate: agreement (and
  // validity) must flip to false while the trace is otherwise intact.
  auto out = run_cc_once(small_run_config());
  ASSERT_TRUE(out.cert.agreement);
  TraceCollector bad(out.trace->n());
  bool doctored = false;
  for (sim::ProcessId p = 0; p < out.trace->n(); ++p) {
    const auto& tr = out.trace->of(p);
    if (!tr.round0_view || !tr.h0) continue;
    bad.record_round0(p, *tr.round0_view, *tr.h0);
    for (const auto& [t, h] : tr.h) bad.record_round(p, t, tr.senders.at(t), h);
    if (tr.decision) {
      if (!doctored) {
        bad.record_decision(p, tr.decision->translated(geo::Vec{5.0, 5.0}));
        doctored = true;
      } else {
        bad.record_decision(p, *tr.decision);
      }
    }
  }
  ASSERT_TRUE(doctored);
  const auto cert =
      certify(bad, out.correct, out.correct_inputs, small_run_config().cc);
  EXPECT_FALSE(cert.agreement);
  EXPECT_GT(cert.max_pairwise_hausdorff, 1.0);
}

TEST(Analysis, CertifyDetectsInvalidOutput) {
  // Feed certify a doctored trace: claim the decision is a polytope far
  // outside the correct hull and check validity flips to false.
  auto out = run_cc_once(small_run_config());
  TraceCollector bad(out.trace->n());
  for (sim::ProcessId p = 0; p < out.trace->n(); ++p) {
    const auto& tr = out.trace->of(p);
    if (tr.round0_view && tr.h0) {
      bad.record_round0(p, *tr.round0_view, *tr.h0);
      for (const auto& [t, h] : tr.h) {
        bad.record_round(p, t, tr.senders.at(t), h);
      }
      if (tr.decision) {
        bad.record_decision(
            p, geo::Polytope::from_points({geo::Vec{100.0, 100.0}}));
      }
    }
  }
  const auto cert =
      certify(bad, out.correct, out.correct_inputs, small_run_config().cc);
  EXPECT_FALSE(cert.validity);
  EXPECT_FALSE(cert.optimality);
}

TEST(Analysis, CertifyAndCheckerShareIzWhenAFaultyViewIsSmaller) {
  // n = 5, f = 1, d = 1, input x_p = p, process 4 faulty. The fault-free
  // processes see all five inputs; the faulty one saw only {0, 1, 2, 4}.
  // Z over every round-0 view is then {0, 1, 2, 4} and I_Z = [1, 2], where
  // the fault-free views alone would give [1, 3]. The decisions [1, 2.5]
  // contain the first floor but not the second.
  const CCConfig cfg{.n = 5, .f = 1, .d = 1, .eps = 0.5};
  const auto segment = [](double lo, double hi) {
    return geo::Polytope::from_points({geo::Vec{lo}, geo::Vec{hi}});
  };
  std::vector<geo::Vec> inputs;
  dsm::StableVectorResult full, partial;
  obs::TraceHeader header;
  header.n = cfg.n;
  header.f = cfg.f;
  header.d = cfg.d;
  header.eps = cfg.eps;
  header.t_end = 1;
  header.faulty = {4};
  for (sim::ProcessId p = 0; p < cfg.n; ++p) {
    inputs.push_back(geo::Vec{static_cast<double>(p)});
    header.inputs.push_back(inputs[p].coords());
    full.emplace_back(p, inputs[p]);
    if (p != 3) partial.emplace_back(p, inputs[p]);
  }

  obs::MemorySink sink;
  obs::Tracer tracer(&sink);
  tracer.line(obs::to_jsonl(header));
  TraceCollector trace(cfg.n, &tracer);
  const std::vector<sim::ProcessId> correct = {0, 1, 2, 3};
  for (sim::ProcessId p : correct) {
    trace.record_round0(p, full, segment(1.0, 3.0));
  }
  trace.record_round0(4, partial, segment(1.0, 2.0));
  for (sim::ProcessId p : correct) {
    obs::TraceEvent start;
    start.kind = obs::EventKind::kRoundStart;
    start.p = p;
    start.round = 1;
    trace.tracer().emit(start);
    trace.record_round(p, 1, {0, 1, 2, 3}, segment(1.0, 2.5));
    trace.record_decision(p, segment(1.0, 2.5), 1);
  }

  const obs::CheckReport report = obs::check_trace_lines(sink.lines());
  ASSERT_TRUE(report.parsed) << report.parse_error;
  EXPECT_TRUE(report.ok()) << obs::describe(report.violations.front());
  ASSERT_TRUE(report.iz_checked);
  EXPECT_NEAR(report.iz_measure, 1.0, 1e-9);

  const Certificate cert = certify(
      trace, correct, {inputs[0], inputs[1], inputs[2], inputs[3]}, cfg);
  EXPECT_DOUBLE_EQ(cert.iz_measure, report.iz_measure);
  EXPECT_TRUE(cert.optimality);
}

}  // namespace
}  // namespace chc::core
