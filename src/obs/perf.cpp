#include "obs/perf.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace rdc::obs {
namespace detail {

std::atomic<int> g_perf_state{-1};

}  // namespace detail

namespace {

/// Latched once any thread fails to open its group: collection is off for
/// the rest of the process so every later span skips the syscall probe.
std::atomic<bool> g_perf_failed{false};
/// Set once any thread succeeds — the "perf-capable host" signal.
std::atomic<bool> g_perf_opened{false};
std::once_flag g_fail_note_once;

void disable_with_note(const char* why) {
  g_perf_failed.store(true, std::memory_order_relaxed);
  detail::g_perf_state.store(0, std::memory_order_relaxed);
  std::call_once(g_fail_note_once, [why] {
    std::fprintf(stderr,
                 "[rdc::obs] RDC_PERF: hardware counters unavailable (%s); "
                 "continuing with wall-time only\n",
                 why);
  });
}

#if defined(__linux__)

/// The group leader (cycles) plus members, read with PERF_FORMAT_GROUP in
/// declaration order.
struct PerfGroup {
  int leader_fd = -1;
  int member_fds[3] = {-1, -1, -1};

  ~PerfGroup() {
    for (int fd : member_fds)
      if (fd >= 0) ::close(fd);
    if (leader_fd >= 0) ::close(leader_fd);
  }
};

int open_event(std::uint32_t type, std::uint64_t config, int group_fd,
               bool exclude_kernel) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof attr);
  attr.type = type;
  attr.size = sizeof attr;
  attr.config = config;
  attr.disabled = group_fd == -1 ? 1 : 0;  // group starts stopped, see below
  attr.exclude_hv = 1;
  attr.exclude_kernel = exclude_kernel ? 1 : 0;
  attr.read_format = PERF_FORMAT_GROUP;
  return static_cast<int>(::syscall(SYS_perf_event_open, &attr, /*pid=*/0,
                                    /*cpu=*/-1, group_fd, /*flags=*/0UL));
}

/// One attempt at the four-event group; nullptr without touching the
/// process-wide latch so the caller can retry user-only.
PerfGroup* try_open_group(bool exclude_kernel) {
  auto group = new PerfGroup;  // leaked with the thread, like ThreadBuf
  group->leader_fd = open_event(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES,
                                /*group_fd=*/-1, exclude_kernel);
  if (group->leader_fd < 0) {
    delete group;
    return nullptr;
  }
  const std::uint64_t members[3] = {PERF_COUNT_HW_INSTRUCTIONS,
                                    PERF_COUNT_HW_CACHE_MISSES,
                                    PERF_COUNT_HW_BRANCH_MISSES};
  for (int i = 0; i < 3; ++i) {
    group->member_fds[i] = open_event(PERF_TYPE_HARDWARE, members[i],
                                      group->leader_fd, exclude_kernel);
    if (group->member_fds[i] < 0) {
      delete group;
      return nullptr;
    }
  }
  if (::ioctl(group->leader_fd, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP) !=
          0 ||
      ::ioctl(group->leader_fd, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP) !=
          0) {
    delete group;
    return nullptr;
  }
  return group;
}

/// Opens the calling thread's group, falling back to user-only counting
/// (perf_event_paranoid >= 2 forbids kernel-inclusive events for
/// unprivileged processes). Latches the process-wide failure when both
/// attempts fail.
PerfGroup* open_group() {
  PerfGroup* group = try_open_group(/*exclude_kernel=*/false);
  if (group == nullptr) group = try_open_group(/*exclude_kernel=*/true);
  if (group == nullptr) {
    disable_with_note("perf_event_open failed");
    return nullptr;
  }
  g_perf_opened.store(true, std::memory_order_relaxed);
  return group;
}

/// nullptr while unopened; a sentinel is never stored — a thread whose
/// open failed flips the process-wide latch instead, so this stays null
/// and perf_read() short-circuits on perf_collecting().
thread_local PerfGroup* tls_group = nullptr;

PerfCounts read_group(PerfGroup& group) {
  // PERF_FORMAT_GROUP layout: nr, then one value per event in open order.
  std::uint64_t buf[1 + 4] = {};
  const ssize_t n = ::read(group.leader_fd, buf, sizeof buf);
  if (n < static_cast<ssize_t>(sizeof buf) || buf[0] != 4) {
    disable_with_note("group read failed");
    return {};
  }
  PerfCounts counts;
  counts.cycles = buf[1];
  counts.instructions = buf[2];
  counts.llc_misses = buf[3];
  counts.branch_misses = buf[4];
  counts.valid = true;
  return counts;
}

#endif  // __linux__

}  // namespace

namespace detail {

int init_perf_state_from_env() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* env = std::getenv("RDC_PERF");
    const bool requested = env != nullptr && *env != '\0' &&
                           std::strcmp(env, "0") != 0 &&
                           std::strcmp(env, "off") != 0;
    g_perf_state.store(requested ? 1 : 0, std::memory_order_relaxed);
  });
  return g_perf_state.load(std::memory_order_relaxed);
}

}  // namespace detail

PerfCounts perf_read() {
  if (!perf_collecting()) return {};
#if defined(__linux__)
  if (g_perf_failed.load(std::memory_order_relaxed)) return {};
  if (tls_group == nullptr) {
    tls_group = open_group();
    if (tls_group == nullptr) return {};
  }
  return read_group(*tls_group);
#else
  disable_with_note("not a Linux build");
  return {};
#endif
}

PerfCounts perf_delta(const PerfCounts& begin, const PerfCounts& end) {
  PerfCounts delta;
  if (!begin.valid || !end.valid) return delta;
  delta.cycles = end.cycles - begin.cycles;
  delta.instructions = end.instructions - begin.instructions;
  delta.llc_misses = end.llc_misses - begin.llc_misses;
  delta.branch_misses = end.branch_misses - begin.branch_misses;
  delta.valid = true;
  return delta;
}

bool perf_available() {
  return g_perf_opened.load(std::memory_order_relaxed) &&
         !g_perf_failed.load(std::memory_order_relaxed);
}

}  // namespace rdc::obs
