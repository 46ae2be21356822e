// End-to-end synthesis flow — the in-repo substitute for the paper's
// Synopsys Design Compiler runs.
//
// Pipeline: reliability-driven DC assignment (policy-selected) → ESPRESSO
// minimization of each output against its remaining DCs (which realizes
// conventional assignment of the remainder) → algebraic factoring → strashed
// AIG (optionally balanced for delay) → tree mapping onto the 70 nm-class
// library → area/delay/power report and exact input-error rate against the
// original specification.
#pragma once

#include <cstdint>
#include <string_view>

#include "exec/status.hpp"
#include "mapper/power.hpp"
#include "mapper/tree_map.hpp"
#include "obs/report.hpp"
#include "reliability/assignment.hpp"
#include "tt/incomplete_spec.hpp"

namespace rdc {

/// How far run_flow had to descend its graceful-degradation ladder
/// (DESIGN.md §10). Each level trades result quality for completion:
///   kNone          — full flow with exact-effort ESPRESSO
///   kHeuristic     — single-pass ESPRESSO: the pipeline with
///                    `espresso(0)` in place of each bare `espresso`
///   kConventional  — no minimization: remaining DCs forced to 0, minterm
///                    covers, synthesized with the budget masked so this
///                    rung always completes
///   kPartial       — even the fallback failed (or the run was cancelled);
///                    FlowResult carries a failure status and no netlist
enum class DegradationLevel : std::uint8_t {
  kNone = 0,
  kHeuristic = 1,
  kConventional = 2,
  kPartial = 3,
};

/// Stable lower-case name ("none", "heuristic", ...) used in report JSON.
const char* degradation_level_name(DegradationLevel level);

struct FlowResult {
  IncompleteSpec implementation;  ///< completely specified final function
  Netlist netlist;
  NetlistStats stats;
  double error_rate = 0.0;        ///< exact, against the original spec
  AssignmentResult assignment;    ///< what the reliability pass did
  /// Per-phase wall times plus the deterministic result metrics (policy,
  /// DC statistics, AIG size, mapped area/delay/power, error rate).
  /// Always filled; span emission follows RDC_TRACE. Carries "status",
  /// "degradation_level"/"degradation" and (when degraded) a
  /// "degraded_reason" metric — the report-schema additions of §10.
  obs::FlowReport report;
  /// OK whenever a netlist was produced (possibly degraded); the terminal
  /// failure when degradation == kPartial.
  exec::Status status;
  /// Which ladder rung produced the result (kNone = full-quality flow).
  DegradationLevel degradation = DegradationLevel::kNone;
};

/// Runs the pipeline spec `pipeline` (flow/pipeline.hpp) on a
/// flow::Design of `spec` and `library` (null: the built-in generic70),
/// inside a degradation ladder, under the calling thread's exec budget
/// (exec::BudgetScope), which the thread pool hands on to the flow's
/// workers. The paper's flow for one DC policy is
/// "assign:<policy> | espresso | factor | aig | map:power | analyze |
/// error_rate" (`balance | map:delay` for the delay setting).
///
/// No-throw by design: budget trips, injected faults and internal errors
/// make it descend the ladder documented on DegradationLevel; the worst
/// case is a kPartial result whose FlowResult::status carries the terminal
/// failure. A cancellation and an invalid argument go straight to
/// kPartial; the latter includes text that does not parse (a knob out of
/// range, NaN included) and a fault model that does not fit the spec,
/// both rejected before any pass runs. Rung 2 maps with the pipeline's own
/// mapper (for delay when the text names `map:delay`, else for power) and
/// rates errors under its error-rate pass's `@model`.
FlowResult run_flow(const IncompleteSpec& spec, std::string_view pipeline,
                    const CellLibrary* library = nullptr);

}  // namespace rdc
