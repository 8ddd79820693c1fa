#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.hpp"

namespace chc::common {
namespace {

/// One parallel_for invocation. Shared (via shared_ptr) with every worker
/// that joins it, so a worker that wakes late simply observes an exhausted
/// index counter and goes back to sleep.
struct Batch {
  const std::function<void(std::size_t)>* job = nullptr;
  std::size_t njobs = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  std::mutex mu;
  std::condition_variable done;
  std::exception_ptr error;

  /// Claims and runs indices until the batch is exhausted.
  void work() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= njobs) return;
      try {
        (*job)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
      if (completed.fetch_add(1, std::memory_order_acq_rel) + 1 == njobs) {
        std::lock_guard<std::mutex> lock(mu);  // pairs with the done wait
        done.notify_all();
      }
    }
  }
};

}  // namespace

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable work_cv;
  std::shared_ptr<Batch> current;   // guarded by mu
  std::uint64_t generation = 0;     // guarded by mu; bumped per batch
  bool stop = false;                // guarded by mu
  std::mutex batch_mu;              // serializes concurrent parallel_for calls
  std::vector<std::thread> workers;

  void worker_main() {
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Batch> batch;
      {
        std::unique_lock<std::mutex> lock(mu);
        work_cv.wait(lock, [&] { return stop || generation != seen; });
        if (stop) return;
        seen = generation;
        batch = current;
      }
      if (batch != nullptr) batch->work();
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(threads == 0 ? 1 : threads), impl_(nullptr) {
  if (threads_ == 1) return;
  impl_ = new Impl;
  impl_->workers.reserve(threads_ - 1);
  for (std::size_t i = 0; i + 1 < threads_; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_main(); });
  }
}

ThreadPool::~ThreadPool() {
  if (impl_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& t : impl_->workers) t.join();
  delete impl_;
}

void ThreadPool::parallel_for(std::size_t njobs,
                              const std::function<void(std::size_t)>& job) {
  if (njobs == 0) return;
  std::unique_lock<std::mutex> busy;
  if (impl_ != nullptr && njobs > 1) {
    busy = std::unique_lock<std::mutex>(impl_->batch_mu, std::try_to_lock);
  }
  if (!busy.owns_lock()) {
    // Serial pool, single job, or the pool is already driving another
    // batch (nested or cross-thread call): run inline in index order.
    for (std::size_t i = 0; i < njobs; ++i) job(i);
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->job = &job;
  batch->njobs = njobs;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->current = batch;
    ++impl_->generation;
  }
  impl_->work_cv.notify_all();
  batch->work();
  {
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->done.wait(lock, [&] {
      return batch->completed.load(std::memory_order_acquire) == njobs;
    });
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->current = nullptr;
  }
  if (batch->error) std::rethrow_exception(batch->error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  return pool;
}

}  // namespace chc::common
