// obs::compare_schedules: two traces of one execution are the same
// schedule when they have the same lines apart from snapshot `verts`; the
// snapshots' movement is measured as polytope d_H.
#include "obs/schedule_diff.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/lossy.hpp"
#include "core/workload.hpp"
#include "geometry/polytope.hpp"
#include "obs/trace.hpp"

namespace chc {
namespace {

std::vector<std::string> record(std::uint64_t seed) {
  core::LossyRunConfig lc;
  lc.base.cc = core::CCConfig{.n = 5, .f = 1, .d = 2, .eps = 0.15};
  lc.base.seed = seed;
  lc.reliable = false;
  obs::MemorySink sink;
  obs::Tracer tracer(&sink);
  lc.tracer = &tracer;
  const core::Workload w = core::make_workload(
      lc.base.cc.n, lc.base.cc.f, lc.base.cc.d, lc.base.pattern, seed,
      lc.base.cc.fault_model == core::FaultModel::kCrashIncorrectInputs);
  const core::LossyRunOutput out = core::run_cc_lossy_custom(lc, w);
  EXPECT_TRUE(out.cert.all_decided);
  return sink.lines();
}

/// Index of the first event line of `kind`.
std::size_t first_of(const std::vector<std::string>& lines,
                     obs::EventKind kind, obs::TraceEvent& e) {
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (obs::parse_event(lines[i], e) && e.kind == kind) return i;
  }
  ADD_FAILURE() << "no event of the requested kind";
  return 0;
}

TEST(ScheduleDiff, IdenticalTracesAreTheSameSchedule) {
  const auto lines = record(3);
  const obs::ScheduleDiff d = obs::compare_schedules(lines, lines);
  EXPECT_TRUE(d.same);
  EXPECT_EQ(d.lines, lines.size());
  EXPECT_EQ(d.moved, 0u);
  EXPECT_EQ(d.max_hausdorff, 0.0);
}

TEST(ScheduleDiff, MovedVertsAreMeasuredAsPolytopeDistance) {
  const auto before = record(3);
  auto after = before;
  obs::TraceEvent e;
  const std::size_t i = first_of(after, obs::EventKind::kDecide, e);
  const geo::Polytope was = geo::Polytope::from_points(e.verts);
  for (geo::Vec& v : e.verts) v[0] += 1e-7;
  after[i] = obs::to_jsonl(e);
  const double moved =
      geo::hausdorff(was, geo::Polytope::from_points(e.verts));

  const obs::ScheduleDiff d = obs::compare_schedules(before, after);
  ASSERT_TRUE(d.same) << d.detail;
  EXPECT_EQ(d.moved, 1u);
  EXPECT_GT(d.max_decide_hausdorff, 0.0);
  EXPECT_DOUBLE_EQ(d.max_decide_hausdorff, moved);
  EXPECT_EQ(d.max_hausdorff, d.max_decide_hausdorff);
}

TEST(ScheduleDiff, AnyOtherFieldIsADifference) {
  const auto before = record(3);
  auto after = before;
  obs::TraceEvent e;
  const std::size_t i = first_of(after, obs::EventKind::kRound, e);
  e.t += 1.0;
  after[i] = obs::to_jsonl(e);
  const obs::ScheduleDiff d = obs::compare_schedules(before, after);
  EXPECT_FALSE(d.same);
  EXPECT_EQ(d.first_diff_line, i + 1);
}

TEST(ScheduleDiff, VertsOnOneSideOnlyIsADifference) {
  const auto before = record(3);
  auto after = before;
  obs::TraceEvent e;
  const std::size_t i = first_of(after, obs::EventKind::kRound0, e);
  e.verts.clear();
  after[i] = obs::to_jsonl(e);
  const obs::ScheduleDiff d = obs::compare_schedules(before, after);
  EXPECT_FALSE(d.same);
  EXPECT_EQ(d.first_diff_line, i + 1);
}

TEST(ScheduleDiff, LineCountIsADifference) {
  const auto before = record(3);
  auto after = before;
  after.pop_back();
  const obs::ScheduleDiff d = obs::compare_schedules(before, after);
  EXPECT_FALSE(d.same);
  EXPECT_EQ(d.first_diff_line, after.size() + 1);
  // Another execution altogether is a different schedule too.
  EXPECT_FALSE(obs::compare_schedules(before, record(4)).same);
}

}  // namespace
}  // namespace chc
