// Tests of the matrix representation (§5): transition matrices follow
// Rules 1-2, products are row stochastic, the ergodicity coefficient obeys
// eq. (12), and the matrix state evolution reproduces the actual polytope
// states (Theorem 1). The certificate tests check that core::certify is a
// view of the checker's judgement of the same run.
#include "core/analysis.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/harness.hpp"
#include "core/workload.hpp"
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
  // Lemma 6: I_Z ⊆ h_i[t] for every fault-free process i and round t, as
  // the verification oracle asserts it over the recorded run.
  const RunConfig rc = small_run_config();
  obs::MemorySink sink;
  obs::Tracer tracer(&sink);
  const Workload w = make_workload(rc.cc.n, rc.cc.f, rc.cc.d, rc.pattern,
                                   rc.seed, /*faulty_incorrect=*/true);
  const auto out =
      run_cc_custom(rc.cc, w, rc.crash_style, rc.delay, rc.seed, &tracer);
  const obs::CheckReport report = obs::check_sink(sink);
  ASSERT_TRUE(report.parsed) << report.parse_error;
  ASSERT_TRUE(report.iz_checked);
  EXPECT_GT(report.iz_measure, 0.0);
  EXPECT_GT(report.snapshots_checked, out.correct.size());
  for (const auto& v : report.violations) {
    EXPECT_NE(v.invariant, "optimality-floor") << obs::describe(v);
  }
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(out.cert.optimality);
}

TEST(Analysis, IzHasAtLeastNMinusFEntries) {
  const auto out = run_cc_once(small_run_config());
  // Z contains >= n - f tuples (stable vector containment, §6).
  // The judge's I_Z needs |X_Z| > f; verify the views directly.
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

/// A hand-built run with n = 5, f = 1, d = 1, ε = 0.5 and process 4
/// faulty: one TraceCollector whose tracer writes the same run to a
/// MemorySink, so certify and the checker judge the same execution.
class HandRun {
 public:
  static constexpr std::size_t kN = 5;
  const CCConfig cfg{.n = kN, .f = 1, .d = 1, .eps = 0.5};
  const std::vector<sim::ProcessId> correct = {0, 1, 2, 3};

  explicit HandRun(const std::vector<double>& inputs) {
    obs::TraceHeader header;
    header.n = cfg.n;
    header.f = cfg.f;
    header.d = cfg.d;
    header.eps = cfg.eps;
    header.t_end = 1;
    header.faulty = {4};
    for (sim::ProcessId p = 0; p < kN; ++p) {
      inputs_.push_back(geo::Vec{inputs.at(p)});
      header.inputs.push_back(inputs_[p].coords());
    }
    tracer_.line(obs::to_jsonl(header));
  }

  /// The view holding the inputs of `origins`.
  dsm::StableVectorResult view(const std::vector<sim::ProcessId>& origins) {
    dsm::StableVectorResult v;
    for (sim::ProcessId p : origins) v.emplace_back(p, inputs_[p]);
    return v;
  }
  dsm::StableVectorResult full_view() { return view({0, 1, 2, 3, 4}); }

  void round0(sim::ProcessId p, const dsm::StableVectorResult& v, double lo,
              double hi) {
    trace_.record_round0(p, v, segment(lo, hi));
  }

  /// p completes round 1 = t_end from the fault-free senders and itself,
  /// and decides.
  void decide(sim::ProcessId p, double lo, double hi) {
    emit(obs::EventKind::kRoundStart, p, 1);
    trace_.record_round(p, 1, {0, 1, 2, 3, p}, segment(lo, hi));
    trace_.record_decision(p, segment(lo, hi), 1);
  }

  /// p crashes and restarts with fresh state.
  void crash_and_recover(sim::ProcessId p) {
    emit(obs::EventKind::kCrash, p, 0);
    emit(obs::EventKind::kRecover, p, 0);
    trace_.reset_process(p);
  }

  obs::CheckReport check() const {
    return obs::check_trace_lines(sink_.lines());
  }
  Certificate certify() const {
    std::vector<geo::Vec> correct_inputs;
    for (sim::ProcessId p : correct) correct_inputs.push_back(inputs_[p]);
    return core::certify(trace_, correct, correct_inputs, cfg);
  }

 private:
  static geo::Polytope segment(double lo, double hi) {
    return geo::Polytope::from_points({geo::Vec{lo}, geo::Vec{hi}});
  }
  void emit(obs::EventKind kind, sim::ProcessId p, std::size_t round) {
    obs::TraceEvent e;
    e.kind = kind;
    e.p = p;
    e.round = round;
    trace_.tracer().emit(e);
  }

  std::vector<geo::Vec> inputs_;
  obs::MemorySink sink_;
  obs::Tracer tracer_{&sink_};
  TraceCollector trace_{kN, &tracer_};
};

/// certify is a view of the checker's judgement of the same run.
void expect_same_verdict(const Certificate& cert,
                         const obs::CheckReport& report) {
  EXPECT_EQ(cert.validity, report.decisions.validity);
  EXPECT_EQ(cert.agreement, report.decisions.agreement);
  EXPECT_EQ(cert.optimality, report.decisions.optimality);
  EXPECT_NEAR(cert.max_pairwise_hausdorff,
              report.decisions.max_pairwise_hausdorff, 1e-12);
  EXPECT_DOUBLE_EQ(cert.iz_measure, report.iz_measure);
}

TEST(Analysis, CertifyAndCheckerShareIzWhenAFaultyViewIsSmaller) {
  // Input x_p = p. The fault-free processes see all five inputs; the
  // faulty one saw only {0, 1, 2, 4}. Z over every round-0 view is then
  // {0, 1, 2, 4} and I_Z = [1, 2], where the fault-free views alone would
  // give [1, 3]. The decisions [1, 2.5] contain the first floor but not
  // the second.
  HandRun run({0, 1, 2, 3, 4});
  for (sim::ProcessId p : run.correct) run.round0(p, run.full_view(), 1, 3);
  run.round0(4, run.view({0, 1, 2, 4}), 1, 2);
  for (sim::ProcessId p : run.correct) run.decide(p, 1, 2.5);

  const obs::CheckReport report = run.check();
  ASSERT_TRUE(report.parsed) << report.parse_error;
  EXPECT_TRUE(report.ok()) << obs::describe(report.violations.front());
  ASSERT_TRUE(report.iz_checked);
  EXPECT_NEAR(report.iz_measure, 1.0, 1e-9);

  const Certificate cert = run.certify();
  EXPECT_DOUBLE_EQ(cert.iz_measure, report.iz_measure);
  EXPECT_TRUE(cert.optimality);
  expect_same_verdict(cert, report);
}

TEST(Analysis, CertifyAndCheckerBuildZOverEveryIncarnation) {
  // As above, but the faulty process 4 then crashes, recovers and records
  // the full view in its fresh incarnation. Its first view still fed the
  // execution, so Z stays {0, 1, 2, 4} and I_Z [1, 2]: certify must not
  // forget the retired incarnation (which would give I_Z = [1, 3]).
  HandRun run({0, 1, 2, 3, 4});
  for (sim::ProcessId p : run.correct) run.round0(p, run.full_view(), 1, 3);
  run.round0(4, run.view({0, 1, 2, 4}), 1, 2);
  run.crash_and_recover(4);
  run.round0(4, run.full_view(), 1, 3);
  for (sim::ProcessId p : run.correct) run.decide(p, 1, 2.5);

  const obs::CheckReport report = run.check();
  ASSERT_TRUE(report.parsed) << report.parse_error;
  EXPECT_TRUE(report.ok()) << obs::describe(report.violations.front());
  EXPECT_NEAR(report.iz_measure, 1.0, 1e-9);

  const Certificate cert = run.certify();
  EXPECT_DOUBLE_EQ(cert.iz_measure, report.iz_measure);
  EXPECT_TRUE(cert.optimality);
  expect_same_verdict(cert, report);
}

TEST(Analysis, CertifyAndCheckerShareTheCollapseSlack) {
  // Inputs 0, 1, 1, 1, 2 make I_Z the point 1. Decisions that collapsed
  // to the point 1 - 1e-5 are resolution-limited: the floor holds within
  // the collapse slack for the checker and for certify alike.
  HandRun run({0, 1, 1, 1, 2});
  for (sim::ProcessId p = 0; p < HandRun::kN; ++p) {
    run.round0(p, run.full_view(), 1, 1);
  }
  for (sim::ProcessId p : run.correct) run.decide(p, 1 - 1e-5, 1 - 1e-5);

  const obs::CheckReport report = run.check();
  ASSERT_TRUE(report.parsed) << report.parse_error;
  EXPECT_TRUE(report.ok()) << obs::describe(report.violations.front());
  ASSERT_TRUE(report.iz_checked);

  const Certificate cert = run.certify();
  EXPECT_TRUE(cert.optimality);
  expect_same_verdict(cert, report);
}

TEST(Analysis, CertifyAndCheckerJudgeAgreementOverEveryDecider) {
  // Input x_p = p, round-0 states [0, 3]. The fault-free processes decide
  // [1, 3]; the faulty process 4 never crashed and decides [0.4, 3], 0.6
  // away at ε = 0.5. ε-agreement covers every process that decided, so
  // both judges reject it.
  HandRun run({0, 1, 2, 3, 4});
  for (sim::ProcessId p = 0; p < HandRun::kN; ++p) {
    run.round0(p, run.full_view(), 0, 3);
  }
  for (sim::ProcessId p : run.correct) run.decide(p, 1, 3);
  run.decide(4, 0.4, 3);

  const obs::CheckReport report = run.check();
  ASSERT_TRUE(report.parsed) << report.parse_error;
  bool eps_violation = false;
  for (const auto& v : report.violations) {
    eps_violation = eps_violation || v.invariant == "eps-agreement";
  }
  EXPECT_TRUE(eps_violation);

  const Certificate cert = run.certify();
  EXPECT_FALSE(cert.agreement);
  EXPECT_NEAR(cert.max_pairwise_hausdorff, 0.6, 1e-9);
  expect_same_verdict(cert, report);
}

}  // namespace
}  // namespace chc::core
