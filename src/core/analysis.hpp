// Post-execution analysis: the matrix representation of §5 and the
// certificate of §6, computed from a recorded trace.
//
// These functions are the empirical counterparts of the paper's proofs:
//  * build_transition_matrices — M[t] per Rules 1–2 (row stochastic).
//  * replay_matrix_evolution   — v[t] = M[t]···M[1] v[0] with the polytope
//    product of eq. (5)/(6); Theorem 1 says v_i[t] == h_i[t] for live
//    processes, which the test suite asserts with Hausdorff ~ 0.
//  * ergodicity_delta          — δ(P) = max_k max_{i,j} |P_ik − P_jk| over
//    live rows; Lemma 3 bounds it by (1 − 1/n)^t.
//  * certify                   — a view of the verification oracle's
//    judgement (obs/checker.hpp): the collector's record — every
//    incarnation's round-0 view and decision, no per-round snapshots — is
//    judged by the same code that judges traces, and its decision-level
//    verdict, I_Z measure and output sizes become the Certificate.
#pragma once

#include <optional>
#include <set>
#include <vector>

#include "core/config.hpp"
#include "core/trace.hpp"
#include "geometry/polytope.hpp"

namespace chc::core {

using Matrix = std::vector<std::vector<double>>;

/// Processes with a recorded h_i[t] for round t (i.e. that completed round
/// t); used as the "live" row set when analysing matrices.
std::vector<sim::ProcessId> completed_round(const TraceCollector& trace,
                                            std::size_t t);

/// M[t] for t = 1..max_round, built from the recorded MSG sets:
/// Rule 1 rows for processes that completed round t, Rule 2 (uniform 1/n)
/// for the rest. Index 0 of the result is M[1].
std::vector<Matrix> build_transition_matrices(const TraceCollector& trace);

/// True iff every row is non-negative and sums to 1 within tol.
bool is_row_stochastic(const Matrix& m, double tol = 1e-9);

/// Backward product P[t] = M[t]···M[1] (paper eq. 4/13).
Matrix matrix_product_backward(const std::vector<Matrix>& ms, std::size_t t);

/// max_k max over given rows i,j of |P_ik − P_jk|.
double ergodicity_delta(const Matrix& p,
                        const std::vector<sim::ProcessId>& rows);

/// Replays v[t] = M[t] v[t−1] with the L-based product (eq. 5–7).
/// v[0] follows initialization I1/I2: recorded h_i[0] where available, and
/// a fixed fault-free process's h[0] otherwise. Returns v[t] for the
/// requested round.
std::vector<geo::Polytope> replay_matrix_evolution(const TraceCollector& trace,
                                                   std::size_t t,
                                                   double rel_tol = 1e-9);

/// Everything the experiments assert about a finished execution.
struct Certificate {
  bool all_decided = false;        ///< every process in `correct` decided
  bool validity = false;           ///< outputs ⊆ H(correct inputs)
  bool agreement = false;          ///< pairwise d_H < ε
  bool optimality = false;         ///< I_Z ⊆ every fault-free output
  double max_pairwise_hausdorff = 0.0;
  double min_output_measure = 0.0;
  double max_output_measure = 0.0;
  double iz_measure = 0.0;
  double correct_hull_measure = 0.0;
  std::size_t rounds = 0;
};

/// The oracle's verdict on `trace` for the processes in `correct`: the
/// judge (obs::judge) reads the configuration, protocol and declared
/// faulty set from `header`, and `validity_inputs` are the inputs whose
/// hull bounds valid outputs. Validity covers every recorded decision,
/// agreement the first incarnation of every process that decided, and
/// optimality asks that I_Z — built from every incarnation's round-0 view —
/// be non-empty and inside every fault-free (never crashed) process's
/// decision; all three stay false until a process outside the declared
/// faulty set decided. They are measured in every configuration (the
/// checker asserts them only where the paper's guarantees hold), and
/// protocol "bcc" leaves the crash-model I_Z floor out (optimality false,
/// iz_measure 0). all_decided and the output measures read `correct`'s
/// latest decisions. `check_tol` is the judge's geometric slack.
Certificate certify(const TraceCollector& trace,
                    const std::vector<sim::ProcessId>& correct,
                    const std::vector<geo::Vec>& validity_inputs,
                    const obs::TraceHeader& header, double check_tol = 1e-6);

/// certify under `cfg` for Algorithm CC, with the processes outside
/// `correct` declared faulty. `correct_inputs` = the inputs whose hull
/// bounds valid outputs — the fault-free processes' inputs under the
/// incorrect-inputs model, ALL inputs under the correct-inputs model.
Certificate certify(const TraceCollector& trace,
                    const std::vector<sim::ProcessId>& correct,
                    const std::vector<geo::Vec>& correct_inputs,
                    const CCConfig& cfg, double check_tol = 1e-6);

}  // namespace chc::core
