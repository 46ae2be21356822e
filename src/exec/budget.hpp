// Cooperative cancellation and resource budgets.
//
// An ExecBudget carries an absolute wall-clock deadline, an iteration cap
// (counted in checkpoint polls) and a memory high-water limit, plus a
// thread-safe cancellation flag. Work never gets preempted: the long loops
// of the system (ESPRESSO expand/reduce/irredundant, SAT propagation,
// NeighborTable construction, parallel_for) poll the budget through
// `exec::checkpoint()` and unwind with a typed StatusError when a limit
// trips.
//
// Propagation is thread-local and scoped: `BudgetScope` installs a budget
// for the current thread, `ThreadPool::parallel_for` re-installs the
// submitting thread's budget on every worker, so a deadline set around a
// flow bounds all of its fan-out without any signature changes.
//
// Polling cost (the contract checkpoints rely on, see DESIGN.md §10):
// without an installed budget a checkpoint is one thread-local load and a
// branch; with one it adds one relaxed atomic load (the cancellation flag —
// observed on the very next poll) and, every 64th poll per thread and
// budget, a steady_clock read for the deadline plus, every 4096th, a /proc
// RSS read when a memory limit is set. A budget's first poll on a thread
// always reads the clock, however many polls other budgets made before.
// Trips are sticky: once a limit fails, every later check fails with the
// same code, which is what makes the flow's degradation ladder descend
// instead of re-running doomed rungs.
#pragma once

#include <atomic>
#include <cstdint>

#include "exec/status.hpp"

namespace rdc::exec {

/// Limits for one unit of work; 0 disables the corresponding check.
struct BudgetLimits {
  double deadline_ms = 0.0;           ///< wall clock, from construction
  std::uint64_t max_checkpoints = 0;  ///< iteration cap (checkpoint count)
  std::uint64_t max_rss_bytes = 0;    ///< process memory high-water
};

class ExecBudget {
 public:
  /// Unlimited budget: only explicit cancellation can trip it.
  ExecBudget() : ExecBudget(BudgetLimits{}) {}
  explicit ExecBudget(const BudgetLimits& limits);

  /// Deadline-only budget; ms <= 0 means unlimited.
  static ExecBudget with_deadline_ms(double ms);

  ExecBudget(const ExecBudget&) = delete;
  ExecBudget& operator=(const ExecBudget&) = delete;

  /// Requests cooperative cancellation; safe from any thread. Every
  /// subsequent check()/poll() fails with kCancelled.
  void request_cancel() { cancel_.store(true, std::memory_order_release); }
  bool cancel_requested() const {
    return cancel_.load(std::memory_order_acquire);
  }

  /// Cheap non-throwing poll (see file comment for the cost model).
  /// Returns OK or the (sticky) trip status.
  Status check();

  /// Unstrided check of every limit, for callers that poll rarely (e.g.
  /// once per ESPRESSO iteration). Does not count as an iteration.
  Status check_now();

  /// Throwing form used by exec::checkpoint().
  void poll() {
    Status status = check();
    if (!status.ok()) throw StatusError(std::move(status));
  }

  /// True once any limit has tripped (or cancellation was requested).
  bool tripped() const {
    return trip_code_.load(std::memory_order_acquire) != StatusCode::kOk ||
           cancel_requested();
  }

 private:
  Status trip(StatusCode code, const char* what);
  Status tripped_status() const;

  std::uint64_t id_;  ///< process-unique; keys the per-thread clock stride
  std::uint64_t deadline_ns_ = 0;  ///< absolute steady-clock ns; 0 = none
  std::uint64_t max_checkpoints_ = 0;
  std::uint64_t max_rss_bytes_ = 0;
  std::atomic<bool> cancel_{false};
  std::atomic<StatusCode> trip_code_{StatusCode::kOk};
  std::atomic<std::uint64_t> checkpoints_{0};
};

/// The budget installed on the current thread, or nullptr.
ExecBudget* current_budget();

/// Scoped thread-local budget installation. Passing nullptr *masks* any
/// inherited budget — the flow's last-resort degradation rung uses this so
/// it always completes.
class BudgetScope {
 public:
  explicit BudgetScope(ExecBudget* budget);
  ~BudgetScope();

  BudgetScope(const BudgetScope&) = delete;
  BudgetScope& operator=(const BudgetScope&) = delete;

 private:
  ExecBudget* previous_;
};

/// Cooperative cancellation/deadline poll: no-op without an installed
/// budget, otherwise ExecBudget::poll() (throws StatusError on a trip).
void checkpoint();

/// Non-throwing variant for loops that return partial results themselves.
Status checkpoint_status();

/// Current resident set size of the process in bytes (Linux /proc; 0 when
/// unavailable, which disables memory high-water checks).
std::uint64_t current_rss_bytes();

}  // namespace rdc::exec
