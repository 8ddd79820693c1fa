// Workload generation: inputs (correct and incorrect) and crash schedules.
//
// The fault model is "crash faults with incorrect inputs" (paper §1): the
// adversary picks up to f processes, hands them incorrect inputs, and may
// crash them anywhere — including mid-broadcast. Workloads make those
// choices concretely and reproducibly from a seed.
#pragma once

#include <cstdint>
#include <vector>

#include "geometry/vec.hpp"
#include "sim/crash.hpp"
#include "sim/message.hpp"

namespace chc::core {

/// How correct inputs are laid out in space.
enum class InputPattern {
  kUniform,    ///< i.i.d. uniform in [-1, 1]^d
  kClustered,  ///< two tight clusters (stresses polytope degeneracy)
  kCollinear,  ///< all correct inputs on one line (degenerate affine hull)
  kIdentical,  ///< all correct inputs equal (degenerate-output case, §6)
};

/// When faulty processes crash.
enum class CrashStyle {
  kNone,          ///< faulty inputs only; nobody actually crashes
  kEarly,         ///< crash during round 0 (stable-vector traffic)
  kMidBroadcast,  ///< crash part-way through some broadcast
  kLate,          ///< crash at a late wall-clock time
};

struct Workload {
  std::vector<geo::Vec> inputs;         ///< one per process
  std::vector<sim::ProcessId> faulty;   ///< the adversary's set F (size <= f)
  double correct_magnitude = 1.0;       ///< bound on |element| over correct inputs
};

/// Generates inputs for n processes, designating f seeded-random process
/// ids as faulty. When `faulty_incorrect` (the paper's main model), faulty
/// inputs are outliers placed well outside the correct pattern's region;
/// otherwise (crash-with-correct-inputs, TR [16]) faulty processes draw
/// from the same pattern as everyone else.
Workload make_workload(std::size_t n, std::size_t f, std::size_t d,
                       InputPattern pattern, std::uint64_t seed,
                       bool faulty_incorrect = true);

/// Same layouts and draws for an explicit faulty set (distinct ids < n,
/// fewer than n of them) in place of the seeded pick; the listed processes
/// get outlier inputs.
Workload make_workload(std::size_t n, std::size_t d, InputPattern pattern,
                       std::uint64_t seed, std::vector<sim::ProcessId> faulty);

/// Crash plans for the workload's faulty set in the given style.
sim::CrashSchedule make_crash_schedule(const Workload& w, CrashStyle style,
                                       std::uint64_t seed);

}  // namespace chc::core
