#include "core/workload.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace chc::core {

namespace {

/// Draws the inputs of a workload whose faulty set is already fixed,
/// continuing `rng`'s stream.
Workload draw_inputs(Rng& rng, std::size_t n, std::size_t d,
                     InputPattern pattern, std::vector<sim::ProcessId> faulty,
                     bool faulty_incorrect) {
  CHC_CHECK(faulty.size() < n, "need at least one correct process");
  CHC_CHECK(d >= 1, "dimension must be >= 1");
  Workload w;
  w.inputs.resize(n);
  w.faulty = std::move(faulty);
  std::sort(w.faulty.begin(), w.faulty.end());
  std::vector<bool> is_faulty(n, false);
  for (std::size_t k = 0; k < w.faulty.size(); ++k) {
    CHC_CHECK(w.faulty[k] < n, "faulty id out of range");
    CHC_CHECK(k == 0 || w.faulty[k - 1] != w.faulty[k], "duplicate faulty id");
    // Under the correct-inputs model faulty processes draw pattern inputs
    // like everyone else.
    if (faulty_incorrect) is_faulty[w.faulty[k]] = true;
  }

  // Correct inputs per pattern.
  geo::Vec line_dir(d, 0.0), identical(d, 0.0);
  for (std::size_t c = 0; c < d; ++c) {
    line_dir[c] = rng.uniform(-1, 1);
    identical[c] = rng.uniform(-1, 1);
  }
  if (line_dir.norm() < 1e-6) line_dir[0] = 1.0;
  line_dir *= 1.0 / line_dir.norm();

  for (sim::ProcessId p = 0; p < n; ++p) {
    if (is_faulty[p]) continue;
    geo::Vec x(d, 0.0);
    switch (pattern) {
      case InputPattern::kUniform:
        for (std::size_t c = 0; c < d; ++c) x[c] = rng.uniform(-1, 1);
        break;
      case InputPattern::kClustered: {
        const double center = rng.bernoulli(0.5) ? 0.6 : -0.6;
        for (std::size_t c = 0; c < d; ++c) {
          x[c] = center + rng.uniform(-0.05, 0.05);
        }
        break;
      }
      case InputPattern::kCollinear:
        x = line_dir * rng.uniform(-1, 1);
        break;
      case InputPattern::kIdentical:
        x = identical;
        break;
    }
    w.inputs[p] = x;
  }

  // Incorrect inputs: outliers well outside the correct region (the
  // adversary's attempt to drag the decided polytope out of the correct
  // hull). Magnitude ~2, so still bounded for the experiments' t_end.
  if (faulty_incorrect) {
    for (sim::ProcessId p : w.faulty) {
      geo::Vec x(d, 0.0);
      for (std::size_t c = 0; c < d; ++c) {
        const double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
        x[c] = sign * rng.uniform(1.5, 2.0);
      }
      w.inputs[p] = x;
    }
  }

  w.correct_magnitude = 1e-9;
  for (sim::ProcessId p = 0; p < n; ++p) {
    if (!is_faulty[p]) {
      w.correct_magnitude = std::max(w.correct_magnitude, w.inputs[p].max_abs());
    }
  }
  w.correct_magnitude = std::max(w.correct_magnitude, 0.1);
  return w;
}

}  // namespace

Workload make_workload(std::size_t n, std::size_t f, std::size_t d,
                       InputPattern pattern, std::uint64_t seed,
                       bool faulty_incorrect) {
  CHC_CHECK(f < n, "need at least one correct process");
  Rng rng(seed);
  // Adversary picks F.
  std::vector<sim::ProcessId> faulty = rng.sample_indices(n, f);
  return draw_inputs(rng, n, d, pattern, std::move(faulty), faulty_incorrect);
}

Workload make_workload(std::size_t n, std::size_t d, InputPattern pattern,
                       std::uint64_t seed, std::vector<sim::ProcessId> faulty) {
  Rng rng(seed);
  return draw_inputs(rng, n, d, pattern, std::move(faulty),
                     /*faulty_incorrect=*/true);
}

sim::CrashSchedule make_crash_schedule(const Workload& w, CrashStyle style,
                                       std::uint64_t seed) {
  Rng rng(seed ^ 0xC0FFEEULL);
  sim::CrashSchedule sched;
  for (sim::ProcessId p : w.faulty) {
    switch (style) {
      case CrashStyle::kNone:
        break;
      case CrashStyle::kEarly:
        // Stable vector sends O(n) messages per quorum phase; a budget of a
        // few sends dies inside the first write/collect.
        sched.set(p, sim::CrashPlan::after(
                         static_cast<std::size_t>(rng.uniform_int(0, 6))));
        break;
      case CrashStyle::kMidBroadcast: {
        // Land inside some later broadcast: a random total send count makes
        // the cut point fall at an arbitrary offset within a broadcast loop.
        const auto k = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(20 * w.inputs.size())));
        sched.set(p, sim::CrashPlan::after(k));
        break;
      }
      case CrashStyle::kLate:
        sched.set(p, sim::CrashPlan::at(rng.uniform(50.0, 200.0)));
        break;
    }
  }
  return sched;
}

}  // namespace chc::core
