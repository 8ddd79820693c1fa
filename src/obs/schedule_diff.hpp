// Same-schedule comparison of two traces of one execution.
//
// A change that moves geometry only in its last bits (grouping identical L
// operands, say) keeps every message, timer and protocol step of a
// recorded execution: only the vertex lists of the state snapshots move.
// compare_schedules checks exactly that — same number of lines, and every
// line equal once its `verts` field is set aside — and measures how far
// the snapshots moved, as the polytope Hausdorff distance between
// corresponding round0 / round / decide records (a vertex-to-vertex
// distance overstates it when a vertex count changes).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace chc::obs {

struct ScheduleDiff {
  bool same = false;                ///< every line equal apart from verts
  std::size_t lines = 0;            ///< lines compared
  std::size_t first_diff_line = 0;  ///< 1-based; 0 when same
  std::string detail;               ///< what differs there
  std::size_t moved = 0;            ///< snapshot lines whose verts differ
  double max_hausdorff = 0.0;       ///< over every snapshot pair
  double max_decide_hausdorff = 0.0;  ///< over the decide pairs
};

/// Compares `after` against `before`, line by line. The first line must be
/// a trace header (its rel_tol builds the snapshot polytopes).
ScheduleDiff compare_schedules(const std::vector<std::string>& before,
                               const std::vector<std::string>& after);

}  // namespace chc::obs
