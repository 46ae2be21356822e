// Fixed-size worker pool with a parallel_for primitive.
//
// The reliability stack fans out along two embarrassingly parallel axes:
// per-output passes inside a flow (each output of a multi-output spec is
// assigned/minimized independently) and per-circuit runs inside the
// experiment harnesses. ThreadPool serves both through one shared pool so
// the process never oversubscribes the machine.
//
// Sizing: ThreadPool::global() reads the RDC_THREADS environment variable
// (0 or unset -> std::thread::hardware_concurrency()). With one thread the
// pool runs everything inline, so single-core environments and
// RDC_THREADS=1 debugging behave exactly like the serial code. Nested
// parallel_for calls (a flow inside an already-parallel harness loop) also
// run inline on the calling worker rather than deadlocking on pool slots.
// Exception propagation (deterministic lowest-index, stop-on-throw), budget
// propagation to workers, and nested deadlock-freedom are covered by
// tests/test_common.cpp and tests/test_exec.cpp (ThreadPool suites).
//
// Observability: parallel_for feeds the rdc::obs counters (pool.jobs,
// pool.tasks, per-worker pool.busy_ns) and emits a "pool.parallel_for"
// trace span when RDC_TRACE is active; workers register as
// "pool-worker-N" in trace and utilization output.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace rdc {

class ThreadPool {
 public:
  /// Pool with `num_threads` workers total (including the caller, which
  /// participates in parallel_for). 0 selects hardware_concurrency().
  explicit ThreadPool(unsigned num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned num_threads() const { return num_threads_; }

  /// Invokes fn(i) for every i in [begin, end), distributing indices across
  /// the pool; blocks until every started index has completed.
  ///
  /// Fault semantics (DESIGN.md §10): after any fn throws, no further
  /// indices are started — already-claimed indices finish, unclaimed ones
  /// are dropped — and the exception from the *lowest* throwing index is
  /// rethrown on the calling thread, deterministically at any thread count
  /// (indices are claimed in order, so every index below a throwing one has
  /// started and gets to record its own error first if it throws too).
  ///
  /// Budget semantics: the submitting thread's exec::current_budget() is
  /// re-installed on every worker for the duration of the job, so a
  /// deadline or cancellation bounds the whole fan-out. Once the budget
  /// trips, remaining indices are dropped and the trip is rethrown as
  /// StatusError. Calls from inside a worker run inline (with a
  /// per-index checkpoint).
  void parallel_for(std::uint64_t begin, std::uint64_t end,
                    const std::function<void(std::uint64_t)>& fn);

  /// Process-wide pool sized from RDC_THREADS (see file comment). The env
  /// var is read once, on first use. A fork()ed child inherits the pool
  /// but none of its worker threads, so in the child it runs every
  /// parallel_for inline.
  static ThreadPool& global();

  /// The number of threads global() has or will have, without creating
  /// it. A process about to fork() sizes its fan-out with this: a thread
  /// alive at fork time may hold a lock the child then waits on forever.
  static unsigned global_size();

 private:
  struct Impl;
  Impl* impl_ = nullptr;  // null when the pool is single-threaded
  unsigned num_threads_ = 1;
};

}  // namespace rdc
