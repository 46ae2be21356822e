#include "exec/supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <thread>
#include <utility>

#include "common/hash.hpp"
#include "exec/fault.hpp"
#include "exec/shutdown.hpp"
#include "obs/counters.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"

// Address-space limits are unusable under ASan (the shadow reservation
// alone exceeds any sane cap), so the RLIMIT_AS install compiles out.
#if defined(__SANITIZE_ADDRESS__)
#define RDC_SUPERVISOR_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RDC_SUPERVISOR_ASAN 1
#endif
#endif
#ifndef RDC_SUPERVISOR_ASAN
#define RDC_SUPERVISOR_ASAN 0
#endif

namespace rdc::exec {
namespace {

/// Upper bound on one worker's result frame; a worker streaming more than
/// this is broken and gets killed (classified as a crash).
constexpr std::size_t kMaxFrameBytes = std::size_t{64} << 20;

double now_ms() {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count()) /
         1000.0;
}

void append_u32(std::string& out, std::uint32_t value) {
  out.push_back(static_cast<char>(value & 0xff));
  out.push_back(static_cast<char>((value >> 8) & 0xff));
  out.push_back(static_cast<char>((value >> 16) & 0xff));
  out.push_back(static_cast<char>((value >> 24) & 0xff));
}

std::uint32_t read_u32(const std::string& in, std::size_t at) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(in[at])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(in[at + 1]))
             << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(in[at + 2]))
             << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(in[at + 3]))
             << 24;
}

struct Frame {
  StatusCode code = StatusCode::kOk;
  std::string message;
  std::string payload;
};

/// [u8 code][u32 mlen][message][u32 plen][payload], exact length.
bool parse_frame(const std::string& buffer, Frame& frame) {
  if (buffer.size() < 9) return false;
  const auto code = static_cast<unsigned char>(buffer[0]);
  if (code > static_cast<unsigned char>(StatusCode::kInternal)) return false;
  const std::uint32_t mlen = read_u32(buffer, 1);
  if (buffer.size() < std::size_t{9} + mlen) return false;
  const std::uint32_t plen = read_u32(buffer, 5 + mlen);
  if (buffer.size() != std::size_t{9} + mlen + plen) return false;
  frame.code = static_cast<StatusCode>(code);
  frame.message = buffer.substr(5, mlen);
  frame.payload = buffer.substr(9 + mlen, plen);
  return true;
}

bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t written = ::write(fd, data, size);
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += written;
    size -= static_cast<std::size_t>(written);
  }
  return true;
}

/// Worker body: runs between fork() and _exit(), single-threaded, on a
/// copy of the parent's address space. Parent-side telemetry must be
/// detached *first* — an inherited event sink would interleave writes and
/// corrupt the parent's seq contract, and an inherited metrics path would
/// race the parent's snapshot renames.
[[noreturn]] void child_main(const SupervisedJob& job, int attempt,
                             const WorkerLimits& limits, int fd) {
  obs::detail::g_events_enabled.store(0, std::memory_order_relaxed);
  obs::metrics_disable();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
#if !RDC_SUPERVISOR_ASAN
  if (limits.max_rss_bytes > 0) {
    rlimit limit{};
    limit.rlim_cur = static_cast<rlim_t>(limits.max_rss_bytes);
    limit.rlim_max = static_cast<rlim_t>(limits.max_rss_bytes);
    ::setrlimit(RLIMIT_AS, &limit);
  }
#endif
  if (limits.wall_ms > 0.0) {
    // CPU-seconds backstop behind the parent's wall watchdog: a worker
    // spinning after the parent died still terminates (SIGXCPU).
    const auto seconds =
        static_cast<rlim_t>(limits.wall_ms / 1000.0) + 2;
    rlimit limit{};
    limit.rlim_cur = seconds;
    limit.rlim_max = seconds + 2;
    ::setrlimit(RLIMIT_CPU, &limit);
  }

  Status status;
  std::string payload;
  try {
    set_fault_context(job.key, attempt);
    fault_point(FaultSite::kJob);
    status = job.run ? job.run(payload)
                     : Status(StatusCode::kInvalidArgument,
                              "supervised job has no body");
  } catch (...) {
    status = status_from_current_exception();
  }

  std::string frame;
  frame.reserve(9 + status.message().size() + payload.size());
  frame.push_back(static_cast<char>(status.code()));
  append_u32(frame, static_cast<std::uint32_t>(status.message().size()));
  frame += status.message();
  append_u32(frame, static_cast<std::uint32_t>(payload.size()));
  frame += payload;
  write_all(fd, frame.data(), frame.size());
  ::close(fd);
  // Never run destructors/atexit in the fork: inherited copies of the
  // parent's threads (pool workers, snapshotter) do not exist here and
  // must not be joined.
  ::_exit(0);
}

struct Running {
  pid_t pid = -1;
  int fd = -1;
  std::size_t index = 0;
  int attempt = 1;
  double deadline_ms = 0.0;  ///< absolute steady ms; 0 = none
  bool killed_on_deadline = false;
  std::string buffer;
};

struct PendingAttempt {
  std::size_t index = 0;
  int attempt = 1;
  double ready_ms = 0.0;  ///< backoff gate; 0 = immediately
};

/// Drains everything currently readable; true on EOF.
bool drain(Running& running) {
  char buffer[1 << 16];
  while (true) {
    const ssize_t got = ::read(running.fd, buffer, sizeof buffer);
    if (got > 0) {
      running.buffer.append(buffer, static_cast<std::size_t>(got));
      if (running.buffer.size() > kMaxFrameBytes) {
        ::kill(running.pid, SIGKILL);  // oversized frame: broken worker
        running.buffer.clear();
      }
      continue;
    }
    if (got == 0) return true;
    if (errno == EINTR) continue;
    return false;  // EAGAIN: nothing more right now
  }
}

}  // namespace

std::string job_key_hex(std::uint64_t key) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(key));
  return buffer;
}

bool outcome_is_transient(const JobOutcome& outcome) {
  return outcome.crashed || outcome.timed_out ||
         outcome.status.code() == StatusCode::kFaultInjected ||
         outcome.status.code() == StatusCode::kResourceExhausted;
}

// Deterministic backoff (see header): the jitter factor is hashed from
// (job, attempt) so colliding retries decorrelate identically on every
// run, resume included.
double retry_backoff_ms(const RetryPolicy& retry, std::uint64_t key,
                        int attempt) {
  if (retry.base_backoff_ms <= 0.0) return 0.0;
  double backoff = retry.base_backoff_ms;
  for (int i = 1; i < attempt; ++i) backoff *= 2.0;
  std::uint64_t hash = fnv1a_bytes(&key, sizeof key);
  hash = fnv1a_bytes(&attempt, sizeof attempt, hash);
  const double u = static_cast<double>(hash >> 11) * 0x1p-53;
  return backoff * (1.0 + std::max(0.0, retry.jitter) * u);
}

SupervisorResult run_supervised(
    const std::vector<SupervisedJob>& jobs, const SupervisorOptions& options,
    const std::function<void(const JobOutcome&)>& on_done) {
  SupervisorResult result;
  result.outcomes.resize(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) result.outcomes[i].index = i;
  faults_armed();  // parse RDC_FAULT once here; every worker inherits it

  const int max_parallel = std::max(1, options.max_parallel);
  const bool events = obs::events_enabled();

  std::deque<PendingAttempt> ready;
  for (std::size_t i = 0; i < jobs.size(); ++i) ready.push_back({i, 1, 0.0});
  std::vector<PendingAttempt> waiting;  // backoff-gated retries
  std::vector<Running> running;

  const auto launch_allowed = [&] {
    if (shutdown_requested()) return false;
    return options.max_completions == 0 ||
           result.completed + result.failed < options.max_completions;
  };

  const auto finalize = [&](JobOutcome& outcome) {
    outcome.ran = true;
    if (outcome.status.ok())
      ++result.completed;
    else
      ++result.failed;
    if (on_done) on_done(outcome);
  };

  const auto spawn = [&](std::size_t index, int attempt) {
    const SupervisedJob& job = jobs[index];
    JobOutcome& outcome = result.outcomes[index];
    outcome.attempts = attempt;
    // Journal hook first: "running" must be durable before the worker
    // exists, or a crash between fork and journal would lose the attempt.
    if (options.on_attempt) options.on_attempt(index, attempt);
    int fds[2];
    if (::pipe(fds) != 0) {
      outcome.status =
          Status(StatusCode::kUnavailable,
                 std::string("pipe failed: ") + std::strerror(errno));
      finalize(outcome);
      return;
    }
    // Flush stdio so buffered parent bytes are not replayed by the child.
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      outcome.status =
          Status(StatusCode::kUnavailable,
                 std::string("fork failed: ") + std::strerror(errno));
      finalize(outcome);
      return;
    }
    if (pid == 0) {
      ::close(fds[0]);
      child_main(job, attempt, options.limits, fds[1]);
    }
    ::close(fds[1]);
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
    Running worker;
    worker.pid = pid;
    worker.fd = fds[0];
    worker.index = index;
    worker.attempt = attempt;
    if (options.limits.wall_ms > 0.0)
      worker.deadline_ms = now_ms() + options.limits.wall_ms;
    running.push_back(std::move(worker));
    if (events) {
      obs::Record fields;
      fields.set("job", job_key_hex(job.key));
      fields.set("name", job.name);
      fields.set("attempt", attempt);
      fields.set("pid", static_cast<std::int64_t>(pid));
      obs::emit_event("job.spawn", fields);
    }
  };

  const auto reap = [&](Running worker) {
    drain(worker);  // pick up any bytes between the last poll and EOF
    ::close(worker.fd);
    int wstatus = 0;
    while (::waitpid(worker.pid, &wstatus, 0) < 0 && errno == EINTR) {
    }
    const SupervisedJob& job = jobs[worker.index];
    JobOutcome& outcome = result.outcomes[worker.index];
    outcome.attempts = worker.attempt;
    outcome.crashed = false;
    outcome.timed_out = false;
    outcome.term_signal = 0;
    outcome.payload.clear();

    Frame frame;
    const bool framed = parse_frame(worker.buffer, frame);
    if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0 && framed) {
      outcome.status = Status(frame.code, std::move(frame.message));
      outcome.payload = std::move(frame.payload);
    } else if (worker.killed_on_deadline) {
      outcome.timed_out = true;
      outcome.term_signal = SIGKILL;
      outcome.status = Status(
          StatusCode::kDeadlineExceeded,
          "worker exceeded the wall limit of " +
              std::to_string(options.limits.wall_ms) + " ms");
    } else if (WIFSIGNALED(wstatus)) {
      const int sig = WTERMSIG(wstatus);
      if (sig == SIGXCPU) {
        outcome.timed_out = true;
        outcome.term_signal = sig;
        outcome.status = Status(StatusCode::kDeadlineExceeded,
                                "worker hit the CPU-time backstop");
      } else {
        outcome.crashed = true;
        outcome.term_signal = sig;
        outcome.status =
            Status(StatusCode::kInternal,
                   "worker killed by signal " + std::to_string(sig));
      }
    } else {
      outcome.crashed = true;
      outcome.status =
          Status(StatusCode::kInternal,
                 WIFEXITED(wstatus)
                     ? "worker exited with code " +
                           std::to_string(WEXITSTATUS(wstatus)) +
                           " without a result frame"
                     : "worker vanished without a result frame");
    }
    if (outcome.crashed) {
      obs::count(obs::Counter::kSupervisorCrashes);
      if (events) {
        obs::Record fields;
        fields.set("job", job_key_hex(job.key));
        fields.set("name", job.name);
        fields.set("attempt", worker.attempt);
        fields.set("signal", outcome.term_signal);
        obs::emit_event("job.crash", fields);
      }
    }

    if (!outcome.status.ok() && outcome_is_transient(outcome) &&
        worker.attempt < options.retry.max_attempts && launch_allowed()) {
      const double backoff =
          retry_backoff_ms(options.retry, job.key, worker.attempt);
      waiting.push_back({worker.index, worker.attempt + 1,
                         backoff > 0.0 ? now_ms() + backoff : 0.0});
      obs::count(obs::Counter::kSupervisorRetries);
      if (events) {
        obs::Record fields;
        fields.set("job", job_key_hex(job.key));
        fields.set("name", job.name);
        fields.set("attempt", worker.attempt + 1);
        fields.set("backoff_ms", backoff);
        obs::emit_event("retry.attempt", fields);
      }
      return;
    }
    finalize(outcome);
  };

  while (true) {
    double now = now_ms();
    for (auto it = waiting.begin(); it != waiting.end();) {
      if (it->ready_ms <= now) {
        ready.push_back(*it);
        it = waiting.erase(it);
      } else {
        ++it;
      }
    }

    while (launch_allowed() &&
           running.size() < static_cast<std::size_t>(max_parallel) &&
           !ready.empty()) {
      const PendingAttempt next = ready.front();
      ready.pop_front();
      spawn(next.index, next.attempt);
    }

    if (running.empty()) {
      if (!launch_allowed()) break;
      if (ready.empty() && waiting.empty()) break;
      if (!ready.empty()) continue;  // a spawn failed; try the next
      // Only backoff-gated retries remain: sleep toward the nearest one.
      double nearest = waiting.front().ready_ms;
      for (const PendingAttempt& pending : waiting)
        nearest = std::min(nearest, pending.ready_ms);
      const double wait = std::clamp(nearest - now_ms(), 1.0, 50.0);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<int>(wait)));
      continue;
    }

    // Poll the worker pipes; wake early for deadlines and backoff gates
    // (and every 50 ms regardless, to notice shutdown signals).
    double timeout = 50.0;
    now = now_ms();
    for (const Running& worker : running)
      if (worker.deadline_ms > 0.0)
        timeout = std::min(timeout, std::max(1.0, worker.deadline_ms - now));
    for (const PendingAttempt& pending : waiting)
      timeout = std::min(timeout, std::max(1.0, pending.ready_ms - now));
    std::vector<pollfd> fds(running.size());
    for (std::size_t i = 0; i < running.size(); ++i)
      fds[i] = {running[i].fd, POLLIN, 0};
    const int polled =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
               static_cast<int>(timeout));
    if (polled < 0 && errno != EINTR) {
      // poll itself failing is unrecoverable for the event loop; fall
      // back to reaping everything so no worker leaks.
      for (Running& worker : running) {
        ::kill(worker.pid, SIGKILL);
        reap(std::move(worker));
      }
      running.clear();
      continue;
    }

    for (std::size_t i = running.size(); i-- > 0;) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (drain(running[i])) {
        Running worker = std::move(running[i]);
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
        reap(std::move(worker));
      }
    }

    now = now_ms();
    for (Running& worker : running) {
      if (worker.deadline_ms > 0.0 && now >= worker.deadline_ms &&
          !worker.killed_on_deadline) {
        worker.killed_on_deadline = true;
        ::kill(worker.pid, SIGKILL);
      }
    }

    if (shutdown_requested()) {
      // Orderly abort: kill in-flight workers and leave their jobs
      // non-terminal (journal state stays "running" → resume re-runs).
      for (Running& worker : running) {
        ::kill(worker.pid, SIGKILL);
        int wstatus = 0;
        while (::waitpid(worker.pid, &wstatus, 0) < 0 && errno == EINTR) {
        }
        ::close(worker.fd);
      }
      running.clear();
      break;
    }
  }

  for (const JobOutcome& outcome : result.outcomes)
    if (!outcome.ran) ++result.skipped;
  result.interrupted = result.skipped > 0;
  return result;
}

}  // namespace rdc::exec
