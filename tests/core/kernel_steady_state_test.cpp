// Steady-state allocation discipline of the geometry kernel (ISSUE 7 S4).
//
// The kernels' scratch lives in per-thread bump arenas whose chunks are
// never returned mid-run: once a warm-up execution has grown the arena to
// its high-water mark, re-running the identical consensus workload must
// allocate zero further chunks — every quickhull/clip/Wolfe scratch request
// is served from already-owned memory, and the combination memo absorbs
// the L calls entirely. The same run also exports the arena / combination
// memo gauges into the metrics registry, which run_report_json serializes.
#include <string>

#include <gtest/gtest.h>

#include "common/arena.hpp"
#include "core/lossy.hpp"
#include "core/workload.hpp"
#include "geometry/intern.hpp"
#include "obs/metrics.hpp"

namespace chc {
namespace {

core::LossyRunConfig steady_config() {
  core::LossyRunConfig lc;
  lc.base.cc = core::CCConfig{.n = 6, .f = 1, .d = 2, .eps = 0.1};
  lc.base.seed = 77;
  lc.base.crash_style = core::CrashStyle::kMidBroadcast;
  lc.reliable = false;  // raw network, single-threaded simulation
  return lc;
}

TEST(KernelSteadyState, RepeatRunsAllocateNoNewArenaChunks) {
  geo::clear_intern_caches();
  core::LossyRunConfig lc = steady_config();
  const core::Workload w = core::make_workload(
      lc.base.cc.n, lc.base.cc.f, lc.base.cc.d, lc.base.pattern, lc.base.seed,
      false);

  // Warm-up: grows the thread arena to this workload's high-water mark and
  // fills the intern / combination caches.
  const core::LossyRunOutput first = core::run_cc_lossy_custom(lc, w);
  ASSERT_TRUE(first.quiescent);
  ASSERT_TRUE(first.cert.all_decided);
  const common::ArenaStats warm = common::arena_stats();

  // Steady state: the identical round structure must be served entirely
  // from already-chunked arena memory (and memoized combinations).
  for (int rep = 0; rep < 3; ++rep) {
    const core::LossyRunOutput out = core::run_cc_lossy_custom(lc, w);
    ASSERT_TRUE(out.quiescent);
    const common::ArenaStats now = common::arena_stats();
    EXPECT_EQ(now.chunk_mallocs, warm.chunk_mallocs)
        << "steady-state repeat " << rep << " grew the arena";
    EXPECT_EQ(now.chunk_bytes, warm.chunk_bytes);
  }
}

TEST(KernelSteadyState, KernelGaugesReachTheMetricsReport) {
  geo::clear_intern_caches();
  obs::Registry registry;
  core::LossyRunConfig lc = steady_config();
  lc.metrics = &registry;
  const core::LossyRunOutput out = core::run_cc_lossy(lc);
  ASSERT_TRUE(out.quiescent);

  const std::string json = registry.to_json();
  for (const char* gauge :
       {"geo.arena.chunk_mallocs", "geo.arena.chunk_bytes",
        "geo.arena.high_water", "geo.combo.hits", "geo.combo.misses"}) {
    EXPECT_NE(json.find(gauge), std::string::npos)
        << "missing gauge " << gauge << " in " << json;
  }
}

}  // namespace
}  // namespace chc
