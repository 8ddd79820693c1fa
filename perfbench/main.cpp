// chc_perfbench: one workload of the consensus benchmark per invocation.
//
//   chc_perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//
// Prints a build stamp, one "name value unit" line per metric, and as its
// last line one JSON object {correct, attempted, failed, metrics}. Exit
// status: 0 when every output was correct, 1 on any failed certificate,
// checker violation, live disagreement or traced/untraced mismatch, 2 on
// bad arguments, 3 when the build is not a Release build.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/thread_pool.hpp"

namespace {

using namespace chc::perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: chc_perfbench --workload svc-d2-mixed|sim-d3-n8|"
               "nemesis-fuzz-checked|live-loopback-d2 [--seed N] "
               "[--seconds S] [--trace 0|1]\n");
  return 2;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void print_json(const Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      o.trace = std::strcmp(val, "0") != 0;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !(o.seconds > 0.0)) return usage();

  Report (*run)(const Options&) = nullptr;
  if (o.workload == "svc-d2-mixed") run = run_svc;
  if (o.workload == "sim-d3-n8") run = run_sim_d3;
  if (o.workload == "nemesis-fuzz-checked") run = run_nemesis;
  if (o.workload == "live-loopback-d2") run = run_live;
  if (run == nullptr) return usage();

  const std::string build_type = CHC_BENCH_BUILD_TYPE;
  std::printf("# build=%s compiler=\"%s\" CHC_SIMD=%s CHC_LTO=%s nproc=%u "
              "geo_pool_threads=%zu\n",
              build_type.c_str(), compiler().c_str(),
              CHC_BENCH_SIMD ? "ON" : "OFF", CHC_BENCH_LTO ? "ON" : "OFF",
              std::thread::hardware_concurrency(),
              chc::common::ThreadPool::global().threads());
  if (build_type != "Release") {
    std::fprintf(stderr, "refusing to record a %s build; rebuild with "
                         "-DCMAKE_BUILD_TYPE=Release\n", build_type.c_str());
    return 3;
  }
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);

  const Report r = run(o);
  for (const Metric& m : r.metrics) {
    std::printf("%-44s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_json(r);
  return r.correct ? 0 : 1;
}
