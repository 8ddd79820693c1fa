#include "core/analysis.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "geometry/ops.hpp"
#include "obs/checker.hpp"

namespace chc::core {

std::vector<sim::ProcessId> completed_round(const TraceCollector& trace,
                                            std::size_t t) {
  std::vector<sim::ProcessId> out;
  for (sim::ProcessId p = 0; p < trace.n(); ++p) {
    if (t == 0) {
      if (trace.of(p).h0.has_value()) out.push_back(p);
    } else if (trace.of(p).h.count(t) != 0) {
      out.push_back(p);
    }
  }
  return out;
}

std::vector<Matrix> build_transition_matrices(const TraceCollector& trace) {
  const std::size_t n = trace.n();
  const std::size_t tmax = trace.max_round();
  std::vector<Matrix> ms;
  ms.reserve(tmax);
  for (std::size_t t = 1; t <= tmax; ++t) {
    Matrix m(n, std::vector<double>(n, 0.0));
    for (sim::ProcessId i = 0; i < n; ++i) {
      const auto& tr = trace.of(i);
      const auto it = tr.senders.find(t);
      if (it != tr.senders.end()) {
        // Rule 1: weight 1/|MSG_i[t]| on each sender, 0 elsewhere (eq. 8-9).
        const double w = 1.0 / static_cast<double>(it->second.size());
        for (sim::ProcessId k : it->second) m[i][k] = w;
      } else {
        // Rule 2: the row is irrelevant; uniform keeps M row stochastic
        // (eq. 10).
        for (sim::ProcessId k = 0; k < n; ++k) {
          m[i][k] = 1.0 / static_cast<double>(n);
        }
      }
    }
    ms.push_back(std::move(m));
  }
  return ms;
}

bool is_row_stochastic(const Matrix& m, double tol) {
  for (const auto& row : m) {
    double sum = 0.0;
    for (double x : row) {
      if (x < -tol) return false;
      sum += x;
    }
    if (std::fabs(sum - 1.0) > tol) return false;
  }
  return true;
}

Matrix matrix_product_backward(const std::vector<Matrix>& ms, std::size_t t) {
  CHC_CHECK(t >= 1 && t <= ms.size(), "round index out of range");
  const std::size_t n = ms[0].size();
  // P = M[1]; then P = M[tau] P for tau = 2..t (backward convention eq. 4).
  Matrix p = ms[0];
  for (std::size_t tau = 2; tau <= t; ++tau) {
    const Matrix& m = ms[tau - 1];
    Matrix next(n, std::vector<double>(n, 0.0));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < n; ++k) {
        const double mik = m[i][k];
        if (mik == 0.0) continue;
        for (std::size_t j = 0; j < n; ++j) next[i][j] += mik * p[k][j];
      }
    }
    p = std::move(next);
  }
  return p;
}

double ergodicity_delta(const Matrix& p,
                        const std::vector<sim::ProcessId>& rows) {
  double delta = 0.0;
  for (std::size_t a = 0; a < rows.size(); ++a) {
    for (std::size_t b = a + 1; b < rows.size(); ++b) {
      for (std::size_t k = 0; k < p.size(); ++k) {
        delta = std::max(delta, std::fabs(p[rows[a]][k] - p[rows[b]][k]));
      }
    }
  }
  return delta;
}

std::vector<geo::Polytope> replay_matrix_evolution(const TraceCollector& trace,
                                                   std::size_t t,
                                                   double rel_tol) {
  const std::size_t n = trace.n();
  const auto ms = build_transition_matrices(trace);
  CHC_CHECK(t <= ms.size(), "round index exceeds recorded rounds");

  // Initialization I1/I2 (§5): v_k[0] for processes without h_k[0] is set to
  // a fault-free process's h[0] — any process that recorded one.
  std::optional<geo::Polytope> fallback;
  for (sim::ProcessId p = 0; p < n; ++p) {
    if (trace.of(p).h0.has_value()) {
      fallback = trace.of(p).h0;
      break;
    }
  }
  CHC_CHECK(fallback.has_value(), "no process completed round 0");

  std::vector<geo::Polytope> v;
  v.reserve(n);
  for (sim::ProcessId p = 0; p < n; ++p) {
    v.push_back(trace.of(p).h0.value_or(*fallback));
  }

  for (std::size_t tau = 1; tau <= t; ++tau) {
    const Matrix& m = ms[tau - 1];
    std::vector<geo::Polytope> next;
    next.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Row product A_i v = L(v^T; A_i) (eq. 5) over non-zero weights.
      std::vector<geo::Polytope> polys;
      std::vector<double> weights;
      for (std::size_t k = 0; k < n; ++k) {
        if (m[i][k] > 0.0) {
          polys.push_back(v[k]);
          weights.push_back(m[i][k]);
        }
      }
      next.push_back(geo::linear_combination(polys, weights, rel_tol));
    }
    v = std::move(next);
  }
  return v;
}

namespace {

/// The judge's record of the collector: every incarnation's round-0 view
/// and decision (a retired incarnation crashed), no per-round snapshots.
obs::ExecutionRecord execution_record(
    const TraceCollector& trace, const obs::TraceHeader& header,
    const std::vector<geo::Vec>& validity_inputs) {
  obs::ExecutionRecord rec;
  rec.header = header;
  rec.validity_inputs = validity_inputs;
  rec.procs.resize(trace.n());
  for (sim::ProcessId p = 0; p < trace.n(); ++p) {
    const std::vector<ProcessTrace>& incs = trace.incarnations(p);
    for (std::size_t k = 0; k < incs.size(); ++k) {
      const ProcessTrace& pt = incs[k];
      obs::Incarnation& inc = rec.procs[p].emplace_back();
      inc.crashed = k + 1 < incs.size();
      if (pt.round0_view.has_value()) {
        inc.has_round0 = true;
        inc.round0_empty = pt.round0_empty;
        for (const auto& [origin, x] : *pt.round0_view) {
          inc.view.emplace(origin, x);
        }
      }
      if (pt.decision.has_value()) {
        inc.decided = true;
        inc.decision = *pt.decision;
      }
    }
  }
  return rec;
}

}  // namespace

Certificate certify(const TraceCollector& trace,
                    const std::vector<sim::ProcessId>& correct,
                    const std::vector<geo::Vec>& validity_inputs,
                    const obs::TraceHeader& header, double check_tol) {
  CHC_CHECK(!correct.empty(), "need at least one correct process");
  CHC_CHECK(!validity_inputs.empty(), "validity needs at least one input");
  CHC_CHECK(header.n == trace.n(), "header and trace disagree on n");
  const obs::CheckReport verdict =
      obs::judge(execution_record(trace, header, validity_inputs),
                 obs::CheckOptions{.tol = check_tol});

  Certificate cert;
  cert.rounds = trace.max_round();
  cert.validity = verdict.decisions.validity;
  cert.agreement = verdict.decisions.agreement;
  cert.optimality = verdict.decisions.optimality;
  cert.max_pairwise_hausdorff = verdict.decisions.max_pairwise_hausdorff;
  cert.iz_measure = verdict.iz_measure;

  cert.all_decided = true;
  std::vector<double> measures;
  for (sim::ProcessId p : correct) {
    const auto& d = trace.of(p).decision;
    if (d.has_value()) {
      measures.push_back(d->measure());
    } else {
      cert.all_decided = false;
    }
  }
  if (measures.empty()) return cert;
  cert.correct_hull_measure = verdict.validity_hull_measure;
  const auto [lo, hi] = std::minmax_element(measures.begin(), measures.end());
  cert.min_output_measure = *lo;
  cert.max_output_measure = *hi;
  return cert;
}

Certificate certify(const TraceCollector& trace,
                    const std::vector<sim::ProcessId>& correct,
                    const std::vector<geo::Vec>& correct_inputs,
                    const CCConfig& cfg, double check_tol) {
  obs::TraceHeader header = config_header(cfg);
  for (sim::ProcessId p = 0; p < cfg.n; ++p) {
    if (std::find(correct.begin(), correct.end(), p) == correct.end()) {
      header.faulty.push_back(p);
    }
  }
  return certify(trace, correct, correct_inputs, header, check_tol);
}

}  // namespace chc::core
