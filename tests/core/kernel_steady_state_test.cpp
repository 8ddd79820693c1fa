// The geometry kernel's health gauges reach the metrics report: a lossy
// CC run exports the combination memo's process-wide hit / miss totals
// into the metrics registry, which run_report_json serializes.
#include <string>

#include <gtest/gtest.h>

#include "core/lossy.hpp"
#include "geometry/intern.hpp"
#include "obs/metrics.hpp"

namespace chc {
namespace {

TEST(KernelSteadyState, KernelGaugesReachTheMetricsReport) {
  geo::clear_intern_caches();
  obs::Registry registry;
  core::LossyRunConfig lc;
  lc.base.cc = core::CCConfig{.n = 6, .f = 1, .d = 2, .eps = 0.1};
  lc.base.seed = 77;
  lc.base.crash_style = core::CrashStyle::kMidBroadcast;
  lc.reliable = false;  // raw network, single-threaded simulation
  lc.metrics = &registry;
  const core::LossyRunOutput out = core::run_cc_lossy(lc);
  ASSERT_TRUE(out.quiescent);

  const std::string json = registry.to_json();
  for (const char* gauge : {"geo.combo.hits", "geo.combo.misses"}) {
    EXPECT_NE(json.find(gauge), std::string::npos)
        << "missing gauge " << gauge << " in " << json;
  }
}

}  // namespace
}  // namespace chc
