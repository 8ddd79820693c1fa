// Fixed-size worker pool.
//
// No kernel uses it: every geometry kernel runs on its caller's thread,
// and parallelism lives at service shards and cluster nodes. Its only
// caller is perfbench's build stamp, which prints global().threads(); the
// class goes once the benchmark drops that stamp field (ROADMAP item 4).
//
// The pool exposes exactly one primitive, parallel_for: run `job(i)` for
// i in [0, njobs) and block until all complete.
//
// Concurrency contract:
//  * parallel_for is serialized internally: a second caller that finds the
//    pool busy runs its loop inline on its own thread instead of waiting.
//  * Nested parallel_for from inside a job therefore also degrades to an
//    inline loop (no deadlock).
//  * Jobs may throw; the first exception is rethrown on the calling thread
//    after the batch drains.
#pragma once

#include <cstddef>
#include <functional>

namespace chc::common {

class ThreadPool {
 public:
  /// `threads` is the total concurrency including the calling thread, so
  /// the pool spawns threads-1 workers. threads == 1 spawns none and
  /// parallel_for degenerates to a plain in-order loop.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threads() const { return threads_; }

  /// Runs job(0), ..., job(njobs-1), the caller participating, and returns
  /// once every index has completed. Order and interleaving are
  /// unspecified (index-addressed outputs make that irrelevant); with
  /// threads() == 1 the loop runs strictly in index order.
  void parallel_for(std::size_t njobs,
                    const std::function<void(std::size_t)>& job);

  /// Process-wide pool, sized on first use to hardware_concurrency.
  static ThreadPool& global();

 private:
  struct Impl;
  std::size_t threads_;
  Impl* impl_;  // null when threads_ == 1
};

}  // namespace chc::common
