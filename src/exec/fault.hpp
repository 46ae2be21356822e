// Deterministic fault injection for robustness testing.
//
// RDC_FAULT=site:N[,site:N...] arms named fault sites: the Nth and every
// later pass through fault_point("site") in the process throws
// StatusError(kFaultInjected). Sites planted in the tree: "espresso" (one
// minimize_bounded() run), "sat" (one Solver::solve call), "neighbor" (one
// NeighborTable build), "flow.exact" / "flow.heuristic" /
// "flow.conventional" (the three rungs of run_flow's degradation ladder),
// "pipeline.pass" (the Pipeline harness's pass boundary — one hit per pass
// about to run).
//
// The disarmed fast path is a single relaxed atomic load, so fault points
// are safe to leave in release builds; hits are counted per site with a
// shared counter so `RDC_FAULT=espresso:3` is deterministic under
// RDC_THREADS=1 and "some run faults" under parallel execution.
#pragma once

#include <string>

namespace rdc::exec {

/// Throws StatusError(kFaultInjected) when `site` is armed and this is the
/// trigger hit (or a later one). No-op (one atomic load) when disarmed.
void fault_point(const char* site);

/// True when any fault site is armed (env var or test override).
bool faults_armed();

namespace testing {

/// Replaces the active fault spec (same grammar as RDC_FAULT; empty
/// disarms) and resets all hit counters. For unit tests; not thread-safe
/// against concurrent fault_point traffic.
void set_fault_spec(const std::string& spec);

}  // namespace testing

}  // namespace rdc::exec
