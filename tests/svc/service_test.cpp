// Service-layer mechanics: shard resolution, bounded-queue backpressure
// with admission accounting, per-instance trace files on disk, failure
// isolation, and result ordering.
#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/lossy.hpp"
#include "obs/checker.hpp"
#include "obs/metrics.hpp"

namespace chc::svc {
namespace {

InstanceSpec quick_spec(std::uint64_t id, std::uint64_t seed) {
  InstanceSpec spec;
  spec.id = id;
  spec.run.base.cc = core::CCConfig{.n = 5, .f = 1, .d = 2, .eps = 0.15};
  spec.run.base.crash_style = core::CrashStyle::kNone;
  spec.run.base.seed = seed;
  spec.run.reliable = false;
  return spec;
}

TEST(Service, ZeroShardsMeansHardwareConcurrency) {
  {
    ServiceConfig cfg;
    cfg.shards = 2;
    ConsensusService service(std::move(cfg));
    EXPECT_EQ(service.shards(), 2u);
  }
  {
    ConsensusService service(ServiceConfig{});  // shards = 0
    EXPECT_EQ(service.shards(),
              std::max(1u, std::thread::hardware_concurrency()));
  }
}

TEST(Service, ResultsAreTaggedAndSortedById) {
  obs::Registry metrics;
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.metrics = &metrics;
  ConsensusService service(std::move(cfg));
  // Submit out of id order; take_results must return 1,2,3,4 sorted.
  for (std::uint64_t id : {4u, 2u, 1u, 3u}) {
    service.submit(quick_spec(id, 100 + id));
  }
  service.drain();
  const auto results = service.take_results();
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].id, i + 1);
    EXPECT_TRUE(results[i].ok) << "instance " << results[i].id;
    EXPECT_EQ(results[i].shard, results[i].id % 2);
  }
  EXPECT_EQ(metrics.counter("svc.admitted").value(), 4u);
  EXPECT_EQ(metrics.counter("svc.completed").value(), 4u);
  EXPECT_EQ(metrics.gauge("svc.shards").value(), 2.0);
  // take_results clears the buffer.
  EXPECT_TRUE(service.take_results().empty());
}

TEST(Service, BoundedQueueRejectsAndCountsAdmission) {
  obs::Registry metrics;
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.queue_capacity = 1;
  cfg.metrics = &metrics;
  ConsensusService service(std::move(cfg));

  // Submissions are microseconds apart while each instance runs for
  // milliseconds, so the single-slot queue must fill and refuse quickly.
  std::uint64_t id = 0;
  std::size_t admitted = 0;
  bool rejected = false;
  while (!rejected && id < 64) {
    if (service.try_submit(quick_spec(id, 500 + id))) {
      ++admitted;
    } else {
      rejected = true;
    }
    ++id;
  }
  EXPECT_TRUE(rejected) << "queue never filled after 64 instant submissions";
  service.drain();
  EXPECT_EQ(service.take_results().size(), admitted);
  EXPECT_EQ(metrics.counter("svc.admitted").value(), admitted);
  EXPECT_GE(metrics.counter("svc.rejected").value(), 1u);
  EXPECT_EQ(metrics.counter("svc.submitted").value(),
            metrics.counter("svc.admitted").value() +
                metrics.counter("svc.rejected").value());
  // Blocking submit absorbs the same pressure instead of refusing.
  for (std::uint64_t i = 0; i < 6; ++i) {
    service.submit(quick_spec(100 + i, 700 + i));
  }
  service.drain();
  EXPECT_EQ(service.take_results().size(), 6u);
  EXPECT_EQ(metrics.counter("svc.failed").value(), 0u);
}

TEST(Service, WritesCheckableTraceFilePerInstance) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "chc_svc_trace_test").string();
  std::filesystem::remove_all(dir);
  {
    ServiceConfig cfg;
    cfg.shards = 2;
    cfg.trace_dir = dir;
    ConsensusService service(std::move(cfg));
    for (std::uint64_t id : {0u, 1u, 2u}) {
      service.submit(quick_spec(id, 40 + id));
    }
    service.drain();
    ASSERT_EQ(service.take_results().size(), 3u);
  }
  for (std::uint64_t id : {0u, 1u, 2u}) {
    const std::string path = dir + "/instance_" + std::to_string(id) + ".jsonl";
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    const obs::CheckReport report = obs::check_trace_file(path);
    EXPECT_TRUE(report.ok())
        << path << ": "
        << (report.parsed ? obs::describe(report.violations.front())
                          : report.parse_error);
  }
  std::filesystem::remove_all(dir);
}

TEST(Service, FailedInstanceIsIsolated) {
  obs::Registry metrics;
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.metrics = &metrics;
  ConsensusService service(std::move(cfg));

  // A malformed spec (workload size != n) throws inside the harness; the
  // worker must survive and later instances still complete.
  InstanceSpec bad = quick_spec(0, 1);
  bad.workload = core::Workload{};  // no inputs
  service.submit(std::move(bad));
  service.submit(quick_spec(1, 2));
  service.drain();
  const auto results = service.take_results();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_FALSE(results[0].error.empty());
  EXPECT_TRUE(results[1].ok);
  EXPECT_EQ(metrics.counter("svc.failed").value(), 1u);
  EXPECT_EQ(metrics.counter("svc.completed").value(), 1u);
}

TEST(Service, UntracedInstanceHasNoStream) {
  ConsensusService service([] {
    ServiceConfig cfg;
    cfg.shards = 1;
    return cfg;
  }());
  InstanceSpec spec = quick_spec(0, 9);
  spec.trace = false;
  service.submit(std::move(spec));
  service.drain();
  const auto results = service.take_results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_TRUE(results[0].trace_lines.empty());
}

}  // namespace
}  // namespace chc::svc
