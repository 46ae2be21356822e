// Hardware-counter span profiling via perf_event_open.
//
// Opt-in with RDC_PERF=1: each thread lazily opens one perf event group
// (cycles leader + instructions, LLC misses, branch misses) counting its
// own user+kernel execution, and every RDC_SPAN / pipeline pass reads the
// group at entry and exit so spans carry hardware deltas next to their
// wall-clock interval. The trace summary then reports per-span IPC and
// miss rates, and FlowReport grows a `perf` block with per-pass cycles.
//
// Degradation contract: perf_event_open is frequently unavailable
// (containers without CAP_PERFMON, kernel.perf_event_paranoid, CI
// sandboxes, non-Linux). The first failed open disables collection for
// the whole process — spans keep recording wall time only, no errors
// propagate, and PerfCounts::valid stays false everywhere. One
// informational line goes to stderr so a profiling run that silently
// lost its counters is explainable.
//
// Cost model: when RDC_PERF is unset, perf_collecting() is one relaxed
// atomic load (same pattern as trace_enabled()). When active, a span
// pays two group reads (one read() syscall each, ~1 µs) — acceptable for
// pass-level spans, which is why collection follows RDC_SPAN and not the
// kernel hot loops.
#pragma once

#include <atomic>
#include <cstdint>

namespace rdc::obs {

/// One group sample (monotonic totals) or a delta between two samples.
struct PerfCounts {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t branch_misses = 0;
  bool valid = false;

  /// Instructions per cycle; 0 when the sample is invalid or idle.
  double ipc() const {
    return (valid && cycles > 0)
               ? static_cast<double>(instructions) / static_cast<double>(cycles)
               : 0.0;
  }
  /// Misses per 1000 instructions — the scale cache/branch rates are
  /// usually quoted at.
  double llc_miss_per_kinst() const {
    return (valid && instructions > 0)
               ? 1000.0 * static_cast<double>(llc_misses) /
                     static_cast<double>(instructions)
               : 0.0;
  }
  double branch_miss_per_kinst() const {
    return (valid && instructions > 0)
               ? 1000.0 * static_cast<double>(branch_misses) /
                     static_cast<double>(instructions)
               : 0.0;
  }

  PerfCounts& operator+=(const PerfCounts& other) {
    if (!other.valid) return *this;
    cycles += other.cycles;
    instructions += other.instructions;
    llc_misses += other.llc_misses;
    branch_misses += other.branch_misses;
    valid = true;
    return *this;
  }
};

namespace detail {
/// -1 until first use; then 0 (off) or 1 (requested via RDC_PERF=1). A
/// process-wide failure latch can flip 1 back to 0.
extern std::atomic<int> g_perf_state;
int init_perf_state_from_env();
}  // namespace detail

/// True when hardware-counter collection was requested and has not been
/// disabled by a failed perf_event_open. One relaxed load on the fast
/// path.
inline bool perf_collecting() {
  const int state = detail::g_perf_state.load(std::memory_order_relaxed);
  return (state >= 0 ? state : detail::init_perf_state_from_env()) != 0;
}

/// Reads the calling thread's counter group, opening it on first use.
/// Returns valid=false (and latches collection off process-wide on an
/// open failure) when hardware counters are unavailable.
PerfCounts perf_read();

/// end - begin, component-wise; valid only when both samples are.
PerfCounts perf_delta(const PerfCounts& begin, const PerfCounts& end);

/// True when at least one thread has successfully opened its group —
/// i.e. deltas can be expected to be valid. Intended for tests and
/// reporting ("perf-capable host"), not gating.
bool perf_available();

}  // namespace rdc::obs
