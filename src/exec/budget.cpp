#include "exec/budget.hpp"

#include <chrono>
#include <cstdio>
#include <string>

#include "obs/events.hpp"

#if defined(__linux__)
#include <unistd.h>
#endif

namespace rdc::exec {
namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

thread_local ExecBudget* tls_budget = nullptr;

std::atomic<std::uint64_t> next_budget_id{1};

}  // namespace

ExecBudget::ExecBudget(const BudgetLimits& limits)
    : id_(next_budget_id.fetch_add(1, std::memory_order_relaxed)),
      max_checkpoints_(limits.max_checkpoints),
      max_rss_bytes_(limits.max_rss_bytes) {
  if (limits.deadline_ms > 0.0)
    deadline_ns_ = steady_now_ns() +
                   static_cast<std::uint64_t>(limits.deadline_ms * 1e6);
}

ExecBudget ExecBudget::with_deadline_ms(double ms) {
  BudgetLimits limits;
  limits.deadline_ms = ms;
  return ExecBudget(limits);
}

Status ExecBudget::trip(StatusCode code, const char* what) {
  // First trip wins; later limit failures keep reporting the first code so
  // degradation decisions are stable.
  StatusCode expected = StatusCode::kOk;
  const bool first =
      trip_code_.compare_exchange_strong(expected, code,
                                         std::memory_order_acq_rel);
  // Exactly one budget.trip event per budget — emitted by whichever thread
  // won the CAS, so the event log sees each trip once even when many
  // workers poll the same budget.
  if (first && obs::events_enabled()) {
    obs::Record fields;
    fields.set("code", status_code_name(code));
    fields.set("limit", what);
    obs::emit_event("budget.trip", fields);
  }
  return tripped_status();
}

Status ExecBudget::tripped_status() const {
  const StatusCode code = trip_code_.load(std::memory_order_acquire);
  switch (code) {
    case StatusCode::kDeadlineExceeded:
      return Status(code, "wall-clock budget expired");
    case StatusCode::kCancelled:
      return Status(code, "cancellation requested");
    case StatusCode::kResourceExhausted:
      return Status(code, "iteration or memory budget exhausted");
    default:
      return Status(code, "budget tripped");
  }
}

Status ExecBudget::check() {
  if (cancel_.load(std::memory_order_relaxed))
    return trip(StatusCode::kCancelled, "cancel");
  if (trip_code_.load(std::memory_order_relaxed) != StatusCode::kOk)
    return tripped_status();
  if (max_checkpoints_ != 0) {
    const std::uint64_t n =
        checkpoints_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n > max_checkpoints_)
      return trip(StatusCode::kResourceExhausted, "iterations");
  }
  if (deadline_ns_ != 0 || max_rss_bytes_ != 0) {
    // Clock/RSS reads are strided per thread and per budget: the stride
    // restarts whenever this thread polls a different budget than last
    // time, and (stride & 63) == 1 fires on the very first poll, so an
    // already-expired deadline is seen at once.
    thread_local std::uint64_t stride_budget = 0;
    thread_local std::uint64_t stride = 0;
    if (stride_budget != id_) {
      stride_budget = id_;
      stride = 0;
    }
    const std::uint64_t s = ++stride;
    if ((s & 63u) == 1u) {
      if (deadline_ns_ != 0 && steady_now_ns() >= deadline_ns_)
        return trip(StatusCode::kDeadlineExceeded, "deadline");
      if (max_rss_bytes_ != 0 && (s & 4095u) == 1u) {
        const std::uint64_t rss = current_rss_bytes();
        if (rss > max_rss_bytes_)
          return trip(StatusCode::kResourceExhausted, "memory");
      }
    }
  }
  return Status();
}

Status ExecBudget::check_now() {
  if (cancel_.load(std::memory_order_relaxed))
    return trip(StatusCode::kCancelled, "cancel");
  if (trip_code_.load(std::memory_order_relaxed) != StatusCode::kOk)
    return tripped_status();
  if (deadline_ns_ != 0 && steady_now_ns() >= deadline_ns_)
    return trip(StatusCode::kDeadlineExceeded, "deadline");
  if (max_rss_bytes_ != 0 && current_rss_bytes() > max_rss_bytes_)
    return trip(StatusCode::kResourceExhausted, "memory");
  return Status();
}

ExecBudget* current_budget() { return tls_budget; }

BudgetScope::BudgetScope(ExecBudget* budget) : previous_(tls_budget) {
  tls_budget = budget;
}

BudgetScope::~BudgetScope() { tls_budget = previous_; }

void checkpoint() {
  ExecBudget* budget = tls_budget;
  if (budget != nullptr) budget->poll();
}

Status checkpoint_status() {
  ExecBudget* budget = tls_budget;
  return budget != nullptr ? budget->check() : Status();
}

std::uint64_t current_rss_bytes() {
#if defined(__linux__)
  // /proc/self/statm: size resident shared text lib data dt (pages).
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int fields = std::fscanf(statm, "%llu %llu", &size, &resident);
  std::fclose(statm);
  if (fields != 2) return 0;
  static const long page = sysconf(_SC_PAGESIZE);
  return resident * static_cast<std::uint64_t>(page > 0 ? page : 4096);
#else
  return 0;
#endif
}

}  // namespace rdc::exec
