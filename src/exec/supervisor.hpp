// Process-isolated job supervisor (DESIGN.md §14) — the hard-isolation
// layer under the batch drivers and, later, the rdcsynd daemon's request
// executor.
//
// Each job runs in a forked worker process with hard resource caps:
// RLIMIT_AS for the memory high-water (an allocation blowup becomes
// bad_alloc → kResourceExhausted inside the worker, or an OOM kill the
// parent classifies), a parent-side wall-clock watchdog that SIGKILLs
// overdue workers (kDeadlineExceeded), and RLIMIT_CPU as a backstop for
// workers spinning with the pipe already closed. The worker returns its
// result over a length-prefixed pipe frame:
//
//   [u8 status code][u32 LE message length][message]
//   [u32 LE payload length][payload]
//
// then _exit(0)s — never running destructors or atexit hooks, so a forked
// copy of the parent's thread pool / telemetry threads is never joined.
// Crashes of any kind (SIGSEGV, injected SIGKILL, a missing/short frame)
// become per-job kInternal outcomes with `crashed` set; the batch
// survives every one of them.
//
// Retry: outcome_is_transient() separates environment-shaped failures
// (crash, timeout, fault injection, resource exhaustion) from
// deterministic ones (kInvalidArgument, kParseError, a clean worker
// exception); only the former retry, with exponential backoff and a
// deterministic per-(job, attempt) jitter.
//
// Observability: job.spawn / job.crash / retry.attempt events and the
// supervisor.{retries,crashes} counters (non-deterministic by contract —
// they depend on fault injection and scheduling, so they stay out of
// report JSON).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exec/status.hpp"

namespace rdc::exec {

/// Hard per-attempt caps enforced on the worker process; 0 disables.
struct WorkerLimits {
  double wall_ms = 0.0;  ///< parent watchdog: SIGKILL + kDeadlineExceeded
  /// RLIMIT_AS in the worker. Skipped under ASan (the shadow mapping is
  /// incompatible with address-space limits); the injected oom bomb
  /// self-caps so that build still exercises the exhaustion path.
  std::uint64_t max_rss_bytes = 0;
};

struct RetryPolicy {
  int max_attempts = 1;          ///< total attempts (1 = no retry)
  double base_backoff_ms = 100;  ///< attempt n waits base * 2^(n-1) * jitter
  double jitter = 0.5;  ///< backoff *= 1 + jitter * u, u = hash(job, n)
};

/// One unit of supervised work. `run` executes in the forked worker: it
/// fills `payload` (returned verbatim over the pipe) and returns the job
/// status. It must not assume any parent thread exists.
struct SupervisedJob {
  std::uint64_t key = 0;  ///< stable identity (journal, fault draws)
  std::string name;       ///< human label for events and reports
  std::function<Status(std::string& payload)> run;
};

struct JobOutcome {
  std::size_t index = 0;  ///< position in the submitted job vector
  Status status;
  std::string payload;    ///< final attempt's frame payload ("" on crash)
  int attempts = 0;       ///< attempts actually started
  bool ran = false;       ///< false: never launched (interruption)
  bool crashed = false;   ///< died without a complete result frame
  bool timed_out = false; ///< wall watchdog or CPU backstop fired
  int term_signal = 0;    ///< terminating signal when crashed/timed out
};

struct SupervisorOptions {
  WorkerLimits limits;
  RetryPolicy retry;
  int max_parallel = 1;  ///< concurrently forked workers
  /// Stop launching new attempts once this many jobs have completed
  /// (0 = no cap). The deterministic "interrupt the batch mid-flight"
  /// switch used by the fault-resume smoke — unlaunched jobs end with
  /// ran == false.
  std::size_t max_completions = 0;
  /// Called in the parent immediately before each fork (journal hook:
  /// the "running" record must be durable before the worker exists).
  std::function<void(std::size_t index, int attempt)> on_attempt;
};

struct SupervisorResult {
  std::vector<JobOutcome> outcomes;  ///< one per job, input order
  std::size_t completed = 0;  ///< ran to a terminal OK outcome
  std::size_t failed = 0;     ///< ran, terminal non-OK outcome
  std::size_t skipped = 0;    ///< never ran (interruption/shutdown)
  bool interrupted = false;   ///< max_completions hit or shutdown signal
};

/// True for the failure classes worth retrying: crash-by-signal, wall/CPU
/// timeout, injected faults, and resource exhaustion. kInvalidArgument,
/// kParseError, and clean worker exceptions (kInternal without a crash)
/// are deterministic and never retry.
bool outcome_is_transient(const JobOutcome& outcome);

/// Deterministic jittered backoff before attempt `attempt` (2, 3, ...):
/// base * 2^(attempt-1), stretched by a jitter factor hashed from
/// (key, attempt) so colliding retries decorrelate identically on every
/// run. Shared by the supervisor, the batch drivers, and the serve
/// client so every retry path waits the same way.
double retry_backoff_ms(const RetryPolicy& retry, std::uint64_t key,
                        int attempt);

/// Runs every job under process isolation. `on_done` (optional) fires in
/// the parent as each job reaches its terminal outcome, in completion
/// order. Never throws; per-job failures live in the outcomes.
SupervisorResult run_supervised(
    const std::vector<SupervisedJob>& jobs, const SupervisorOptions& options,
    const std::function<void(const JobOutcome&)>& on_done = {});

/// Renders a job key as the 16-hex string used by journals and events.
std::string job_key_hex(std::uint64_t key);

}  // namespace rdc::exec
