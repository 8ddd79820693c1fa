// Configuration of Algorithm CC (paper §4).
#pragma once

#include <cstddef>

namespace chc::core {

/// How round 0 learns the inputs. The paper (§4) stresses that the stable
/// vector primitive is what makes the decided polytope optimal (Containment
/// maximizes the common view Z); kNaiveCollect is the ablation that drops it
/// — convergence and validity still hold, but the I_Z lower bound of
/// Lemma 6 no longer does (experiment E4 measures the loss).
enum class Round0Policy {
  kStableVector,
  kNaiveCollect,
};

/// Which fault model the instance runs under (paper §1).
enum class FaultModel {
  /// The paper's main model: faulty processes have incorrect inputs and may
  /// crash. Requires n >= (d+2)f + 1; round 0 drops every f-subset.
  kCrashIncorrectInputs,
  /// The TR [16] extension: faulty processes may crash but their inputs are
  /// correct. Every received input is trustworthy, so round 0 takes the
  /// plain hull H(X_i) (no subset-dropping) and n >= 2f + 1 suffices
  /// (the stable-vector quorum bound). Validity is against the hull of
  /// ALL inputs.
  kCrashCorrectInputs,
};

/// Parameters of an approximate convex hull consensus instance. Every
/// iterate is the exact L of Definition 2: Theorem 3's I_Z floor is proved
/// only for exact states, so no knob approximates them.
struct CCConfig {
  std::size_t n = 0;  ///< number of processes
  std::size_t f = 0;  ///< max faulty processes (crash + incorrect input)
  std::size_t d = 1;  ///< input dimension
  double eps = 1e-2;  ///< ε-agreement target (Hausdorff distance)

  /// Bound on |element| of every input vector: the paper's U and μ are an
  /// upper and lower bound on elements; the termination bound (eq. 19) only
  /// uses max(U², μ²), i.e. the squared magnitude bound.
  double input_magnitude = 1.0;

  /// Geometry tolerance forwarded to the polytope kernel.
  double rel_tol = 1e-9;

  /// Round-0 communication (ablation knob; default is the paper's choice).
  Round0Policy round0 = Round0Policy::kStableVector;

  /// Fault model (default: the paper's crash-with-incorrect-inputs).
  FaultModel fault_model = FaultModel::kCrashIncorrectInputs;

  /// True iff n meets the model's resilience requirement: (d+2)f + 1 for
  /// incorrect inputs (paper eq. 2), 2f + 1 for correct inputs (TR [16]).
  bool meets_resilience_bound() const {
    if (fault_model == FaultModel::kCrashCorrectInputs) {
      return n >= 2 * f + 1;
    }
    return n >= (d + 2) * f + 1;
  }

  /// How many inputs round 0 discards per subset (line 5): f suspects under
  /// incorrect inputs, none when all inputs are correct.
  std::size_t round0_drop() const {
    return fault_model == FaultModel::kCrashIncorrectInputs ? f : 0;
  }

  /// t_end per eq. (19): the smallest positive integer t with
  ///   (1 - 1/n)^t · sqrt(d · n² · max(U², μ²)) < ε.
  std::size_t t_end() const;
};

}  // namespace chc::core
