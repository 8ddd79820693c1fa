#include "svc/service.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "obs/trace.hpp"

namespace chc::svc {
namespace {

std::size_t resolve_shards(std::size_t configured) {
  if (configured > 0) return configured;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

struct ConsensusService::Impl {
  struct Shard {
    std::mutex mu;
    std::condition_variable not_full;
    std::condition_variable not_empty;
    std::deque<InstanceSpec> queue;
    std::thread worker;
  };

  ServiceConfig cfg;
  std::size_t nshards;
  std::vector<std::unique_ptr<Shard>> shards;
  std::atomic<bool> stopping{false};

  std::mutex results_mu;
  std::condition_variable idle;
  std::vector<InstanceResult> results;
  std::size_t in_flight = 0;  // admitted, not yet in `results`

  explicit Impl(ServiceConfig c) : cfg(std::move(c)) {
    nshards = resolve_shards(cfg.shards);
    if (cfg.queue_capacity == 0) cfg.queue_capacity = 1;
    if (!cfg.trace_dir.empty()) {
      std::filesystem::create_directories(cfg.trace_dir);
    }
    if (cfg.metrics != nullptr) {
      cfg.metrics->gauge("svc.shards").set(static_cast<double>(nshards));
    }
    for (std::size_t s = 0; s < nshards; ++s) {
      shards.push_back(std::make_unique<Shard>());
    }
    for (std::size_t s = 0; s < nshards; ++s) {
      shards[s]->worker = std::thread([this, s] { worker_loop(s); });
    }
  }

  void count(const char* name, std::uint64_t by = 1) {
    if (cfg.metrics != nullptr) cfg.metrics->counter(name).inc(by);
  }

  std::size_t shard_of(const InstanceSpec& spec) const {
    return static_cast<std::size_t>(spec.id % nshards);
  }

  /// Admission bookkeeping shared by both submit paths. Caller holds the
  /// shard's lock and has already ensured capacity.
  void admit_locked(Shard& sh, InstanceSpec&& spec) {
    sh.queue.push_back(std::move(spec));
    {
      std::lock_guard<std::mutex> lock(results_mu);
      ++in_flight;
    }
    count("svc.admitted");
    sh.not_empty.notify_one();
  }

  std::size_t submit(InstanceSpec spec) {
    CHC_CHECK(spec.run.tracer == nullptr && spec.run.metrics == nullptr,
              "the service owns per-instance tracing; set InstanceSpec::trace");
    count("svc.submitted");
    const std::size_t s = shard_of(spec);
    Shard& sh = *shards[s];
    std::unique_lock<std::mutex> lock(sh.mu);
    if (sh.queue.size() >= cfg.queue_capacity) {
      count("svc.backpressure_waits");
      sh.not_full.wait(lock, [&] {
        return sh.queue.size() < cfg.queue_capacity || stopping.load();
      });
    }
    CHC_CHECK(!stopping.load(), "submit on a stopping service");
    admit_locked(sh, std::move(spec));
    return s;
  }

  bool try_submit(InstanceSpec spec) {
    CHC_CHECK(spec.run.tracer == nullptr && spec.run.metrics == nullptr,
              "the service owns per-instance tracing; set InstanceSpec::trace");
    count("svc.submitted");
    const std::size_t s = shard_of(spec);
    Shard& sh = *shards[s];
    std::lock_guard<std::mutex> lock(sh.mu);
    if (stopping.load() || sh.queue.size() >= cfg.queue_capacity) {
      count("svc.rejected");
      return false;
    }
    admit_locked(sh, std::move(spec));
    return true;
  }

  void worker_loop(std::size_t s) {
    Shard& sh = *shards[s];
    for (;;) {
      InstanceSpec spec;
      {
        std::unique_lock<std::mutex> lock(sh.mu);
        sh.not_empty.wait(lock, [&] {
          return !sh.queue.empty() || stopping.load();
        });
        if (sh.queue.empty()) break;  // stopping && drained
        spec = std::move(sh.queue.front());
        sh.queue.pop_front();
        sh.not_full.notify_one();
      }
      InstanceResult r = run_instance(std::move(spec), s);
      count(r.ok ? "svc.completed" : "svc.failed");
      {
        std::lock_guard<std::mutex> lock(results_mu);
        results.push_back(std::move(r));
        --in_flight;
      }
      idle.notify_all();
    }
  }

  InstanceResult run_instance(InstanceSpec spec, std::size_t s) {
    InstanceResult r;
    r.id = spec.id;
    r.shard = s;
    obs::MemorySink sink;
    obs::Tracer tracer(&sink);
    core::LossyRunConfig lc = spec.run;
    lc.tracer = spec.trace ? &tracer : nullptr;
    try {
      const core::RunConfig& rc = lc.base;
      const core::Workload w =
          spec.workload.has_value()
              ? *spec.workload
              : core::make_workload(rc.cc.n, rc.cc.f, rc.cc.d, rc.pattern,
                                    rc.seed,
                                    rc.cc.fault_model ==
                                        core::FaultModel::kCrashIncorrectInputs);
      r.out = core::run_cc_lossy_custom(lc, w);
      r.ok = r.out.quiescent && r.out.cert.all_decided &&
             r.out.cert.validity && r.out.cert.agreement;
    } catch (const std::exception& e) {
      r.error = e.what();
      r.ok = false;
    }
    if (spec.trace) {
      r.trace_lines = sink.lines();
      if (!cfg.trace_dir.empty()) {
        const std::string path =
            cfg.trace_dir + "/instance_" + std::to_string(r.id) + ".jsonl";
        std::ofstream out(path);
        for (const std::string& line : r.trace_lines) out << line << "\n";
      }
    }
    return r;
  }

  void drain() {
    std::unique_lock<std::mutex> lock(results_mu);
    idle.wait(lock, [&] { return in_flight == 0; });
  }

  void shutdown() {
    drain();
    stopping.store(true);
    for (auto& sh : shards) {
      std::lock_guard<std::mutex> lock(sh->mu);
      sh->not_empty.notify_all();
      sh->not_full.notify_all();
    }
    for (auto& sh : shards) {
      if (sh->worker.joinable()) sh->worker.join();
    }
  }
};

ConsensusService::ConsensusService(ServiceConfig cfg)
    : impl_(std::make_unique<Impl>(std::move(cfg))) {}

ConsensusService::~ConsensusService() { impl_->shutdown(); }

std::size_t ConsensusService::shards() const { return impl_->nshards; }

std::size_t ConsensusService::submit(InstanceSpec spec) {
  return impl_->submit(std::move(spec));
}

bool ConsensusService::try_submit(InstanceSpec spec) {
  return impl_->try_submit(std::move(spec));
}

std::size_t ConsensusService::submit_batch(std::vector<InstanceSpec> specs) {
  const std::size_t n = specs.size();
  for (InstanceSpec& spec : specs) impl_->submit(std::move(spec));
  return n;
}

void ConsensusService::drain() { impl_->drain(); }

std::vector<InstanceResult> ConsensusService::take_results() {
  std::vector<InstanceResult> out;
  {
    std::lock_guard<std::mutex> lock(impl_->results_mu);
    out = std::move(impl_->results);
    impl_->results.clear();
  }
  std::sort(out.begin(), out.end(),
            [](const InstanceResult& a, const InstanceResult& b) {
              return a.id < b.id;
            });
  return out;
}

std::vector<InstanceResult> run_batch(std::vector<InstanceSpec> specs,
                                      std::size_t shards,
                                      obs::Registry* metrics) {
  ServiceConfig cfg;
  cfg.shards = shards;
  cfg.metrics = metrics;
  ConsensusService service(std::move(cfg));
  service.submit_batch(std::move(specs));
  service.drain();
  return service.take_results();
}

}  // namespace chc::svc
