// Structured lifecycle event log (schema rdc.events.v1).
//
// A process-wide JSONL stream for incident forensics: the Pipeline
// harness, the degradation ladder, ExecBudget trips, and RDC_FAULT
// firings emit one compact JSON object per line to the sink named by
// RDC_EVENTS=<path> (append; "-" for stderr). Each line carries the
// schema tag, a process-monotonic sequence number (== line order, the
// sink mutex assigns it), a trace-epoch timestamp, the event name, and
// event-specific fields:
//
//   {"schema": "rdc.events.v1", "seq": 3, "ts_ns": 51234, "tid": 0,
//    "event": "pass.end", "pass": "espresso", "circuit": "rd53",
//    "status": "OK", "wall_ms": 1.25}
//
// Event taxonomy (emitters in parentheses):
//   pipeline.begin / pipeline.end  (flow::Pipeline::run)
//   pass.begin / pass.end          (flow::Pipeline::run, per pass)
//   flow.degrade                   (run_flow's degradation ladder)
//   budget.trip                    (exec::ExecBudget, first trip only)
//   fault.fired                    (exec::fault_point, on a firing hit)
//
// Determinism: `ts_ns` and `wall_ms` are the only run-varying fields; with
// RDC_THREADS=1 the stream minus those fields is byte-identical run to
// run (under parallel fan-out, lines from different circuits interleave
// but every line's non-timing content is still deterministic).
//
// Cost: events_enabled() is one relaxed atomic load; call sites guard on
// it before building the field record, so the disabled cost matches the
// tracer's. Emission takes a short global mutex — events are rare
// (pass-level, not kernel-level) by design.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "obs/report.hpp"

namespace rdc::obs {

namespace detail {
/// -1 until first use; then 0 (off) or 1 (a sink or capture is active).
extern std::atomic<int> g_events_enabled;
int init_events_enabled_from_env();
}  // namespace detail

inline bool events_enabled() {
  const int enabled = detail::g_events_enabled.load(std::memory_order_relaxed);
  return (enabled >= 0 ? enabled : detail::init_events_enabled_from_env()) !=
         0;
}

/// Appends one event line. `name` must outlive the call (string literals).
/// `fields` is written after the standard header fields, in insertion
/// order. No-op when disabled — but prefer guarding on events_enabled()
/// so the Record is never built.
void emit_event(const char* name, const Record& fields);
void emit_event(const char* name);

/// Programmatic sink control (overrides the environment): an empty path
/// disables, "-" selects stderr, anything else appends to that file.
void set_events_path(const std::string& path);

/// Flushes the file sink's buffered lines to the OS. Called before a
/// shutdown-signal re-raise so the terminating record is on disk before
/// the default disposition kills the process.
void flush_events();

/// Capture mode for tests: events are retained in memory instead of (in
/// addition to nothing) a file; drain_events() returns and clears them.
void set_events_capture(bool capture);
std::vector<std::string> drain_events();

}  // namespace rdc::obs
