#include "common/thread_pool.hpp"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "exec/budget.hpp"
#include "exec/status.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace rdc {
namespace {

/// True on threads currently executing a parallel_for body; nested calls
/// run inline instead of re-entering the pool.
thread_local bool tls_in_parallel_region = false;

void run_inline(std::uint64_t begin, std::uint64_t end,
                const std::function<void(std::uint64_t)>& fn) {
  for (std::uint64_t i = begin; i < end; ++i) {
    exec::checkpoint();  // serial path: budget trip stops before index i
    fn(i);
  }
}

/// One parallel_for invocation. Workers each hold their own shared_ptr, so
/// a straggler waking after the job completed sees exhausted counters and
/// exits without ever touching a newer job's state.
struct Job {
  std::uint64_t end = 0;
  const std::function<void(std::uint64_t)>* fn = nullptr;
  exec::ExecBudget* budget = nullptr;  ///< submitter's budget, or null
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> pending{0};
  /// Set on the first throw or budget trip; claimed indices finish, but no
  /// new index starts once this is observed.
  std::atomic<bool> stop{false};

  std::mutex done_mutex;
  std::condition_variable done;
  std::exception_ptr first_error;
  std::uint64_t first_error_index = UINT64_MAX;
  bool budget_stopped = false;

  /// Pulls indices until the job is exhausted or stopped. The owning
  /// parallel_for call outlives every index (it waits on `pending`), so
  /// `*fn` stays valid for the whole loop.
  ///
  /// Determinism of the propagated exception: `next.fetch_add` hands out
  /// indices in increasing order, so when index j throws and raises `stop`,
  /// every index i < j was already claimed — it runs to completion and, if
  /// it throws too, records under `i < first_error_index`. The lowest
  /// throwing index therefore always wins, at any thread count.
  void work() {
    tls_in_parallel_region = true;
    exec::BudgetScope scope(budget);  // propagate the submitter's budget
    // Busy time is attributed to the executing thread's counter shard, so
    // the summary's pool-utilization table shows per-worker load.
    const bool timed = obs::counters_enabled();
    const std::uint64_t entered_ns = timed ? obs::trace_now_ns() : 0;
    std::uint64_t executed = 0;
    for (;;) {
      const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= end) break;
      bool run = !stop.load(std::memory_order_acquire);
      if (!run) {
        // Claimed before the stop raced in: indices below the recorded
        // error still run (they may hold the true lowest error, keeping
        // the propagated exception deterministic); budget trips and
        // indices above the error stay cancelled.
        std::lock_guard<std::mutex> lock(done_mutex);
        run = !budget_stopped && i < first_error_index;
      }
      if (run && budget != nullptr && !budget->check().ok()) {
        {
          std::lock_guard<std::mutex> lock(done_mutex);
          budget_stopped = true;
        }
        stop.store(true, std::memory_order_release);
        run = false;
      }
      if (run) {
        ++executed;
        try {
          (*fn)(i);
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(done_mutex);
            if (i < first_error_index) {
              first_error_index = i;
              first_error = std::current_exception();
            }
          }
          stop.store(true, std::memory_order_release);
        }
      }
      if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(done_mutex);
        done.notify_all();
      }
    }
    // Per-worker attribution only: the deterministic kPoolTasks total is
    // counted by parallel_for itself, because a straggler thread can reach
    // this point after the owning parallel_for (and even the process's
    // report writer) has moved on.
    if (executed > 0) {
      obs::count(obs::Counter::kPoolWorkerTasks, executed);
      if (timed)
        obs::count(obs::Counter::kPoolBusyNs,
                   obs::trace_now_ns() - entered_ns);
    }
    tls_in_parallel_region = false;
  }
};

}  // namespace

struct ThreadPool::Impl {
  std::vector<std::thread> workers;

  std::mutex mutex;
  std::condition_variable work_ready;
  bool shutting_down = false;
  std::uint64_t generation = 0;
  std::shared_ptr<Job> current;

  void worker_loop(unsigned worker_index) {
    obs::set_thread_name("pool-worker-" + std::to_string(worker_index));
    std::uint64_t seen_generation = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_ready.wait(lock, [&] {
          return shutting_down || generation != seen_generation;
        });
        if (shutting_down) return;
        seen_generation = generation;
        job = current;
      }
      job->work();
    }
  }
};

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads == 0) num_threads = std::thread::hardware_concurrency();
  if (num_threads == 0) num_threads = 1;
  num_threads_ = num_threads;
  if (num_threads_ <= 1) return;
  impl_ = new Impl;
  impl_->workers.reserve(num_threads_ - 1);
  for (unsigned t = 0; t + 1 < num_threads_; ++t)
    impl_->workers.emplace_back([this, t] { impl_->worker_loop(t); });
}

ThreadPool::~ThreadPool() {
  if (!impl_) return;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->shutting_down = true;
  }
  impl_->work_ready.notify_all();
  for (std::thread& worker : impl_->workers) worker.join();
  delete impl_;
}

void ThreadPool::parallel_for(std::uint64_t begin, std::uint64_t end,
                              const std::function<void(std::uint64_t)>& fn) {
  if (begin >= end) return;
  // Job/task counts are index arithmetic, identical at any thread count;
  // only kPoolBusyNs (measured in Job::work) is scheduling-dependent.
  obs::count(obs::Counter::kPoolJobs);
  obs::count(obs::Counter::kPoolTasks, end - begin);
  obs::observe(obs::Histo::kPoolTasksPerJob, end - begin);
  if (!impl_ || tls_in_parallel_region || end - begin == 1) {
    obs::count(obs::Counter::kPoolWorkerTasks, end - begin);
    run_inline(begin, end, fn);
    return;
  }
  RDC_SPAN("pool.parallel_for");
  auto job = std::make_shared<Job>();
  job->end = end;
  job->fn = &fn;
  job->budget = exec::current_budget();
  job->next.store(begin, std::memory_order_relaxed);
  job->pending.store(end - begin, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->current = job;
    ++impl_->generation;
  }
  impl_->work_ready.notify_all();
  job->work();  // the calling thread is one of the pool's threads
  std::unique_lock<std::mutex> lock(job->done_mutex);
  job->done.wait(lock, [&] {
    return job->pending.load(std::memory_order_acquire) == 0;
  });
  if (job->first_error) std::rethrow_exception(job->first_error);
  if (job->budget_stopped)
    throw exec::StatusError(
        job->budget->check().with_context("parallel_for"));
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(global_size());
  // The child of a fork() has none of the workers, and the pool's mutex
  // and condition variable may be mid-use by threads that no longer exist
  // (a broadcast can then block forever): drop the Impl, unjoined.
  [[maybe_unused]] static const int fork_handler = ::pthread_atfork(
      nullptr, nullptr, [] { pool.impl_ = nullptr; });
  return pool;
}

unsigned ThreadPool::global_size() {
  static const unsigned size = [] {
    const char* env = std::getenv("RDC_THREADS");
    const long parsed = env == nullptr ? 0 : std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<unsigned>(parsed);
    return std::max(1u, std::thread::hardware_concurrency());
  }();
  return size;
}

}  // namespace rdc
