// Metrics registry: counters, gauges and fixed-bucket histograms.
//
// A Registry aggregates the quantitative story of a run — message counts,
// per-round hull vertex counts, Hausdorff distances, retransmit depths,
// delivery latencies — into one machine-readable JSON report (the bench
// harness writes these next to its tables, and CI archives them). Metrics
// are created on first use and addressed by name; handles returned by the
// registry stay valid for the registry's lifetime, so hot paths hold the
// pointer and pay one atomic per observation.
//
// All metric types are thread-safe (svc shard threads observe into one
// shared registry); the registry itself locks only on creation/lookup.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace chc::obs {

class Counter {
 public:
  void inc(std::uint64_t by = 1) {
    v_.fetch_add(by, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations x <= bounds[i]
/// (cumulative-style assignment to the first fitting bucket), plus an
/// implicit overflow bucket for x > bounds.back().
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double x);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; size() == bounds().size() + 1 (last = overflow).
  std::vector<std::uint64_t> counts() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Creates the histogram on first use; later calls with the same name
  /// return the existing one (bounds must match).
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  /// The run report: one JSON object with counters / gauges / histograms
  /// sorted by name (deterministic output).
  std::string to_json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace chc::obs
