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
#include <string>

#include "exec/status.hpp"
#include "mapper/power.hpp"
#include "mapper/tree_map.hpp"
#include "obs/report.hpp"
#include "reliability/assignment.hpp"
#include "tt/incomplete_spec.hpp"

namespace rdc {

/// Mirrors the paper's two Design Compiler configurations
/// ("set_max_delay 0" vs "set_max_leakage/dynamic_power 0"; the paper notes
/// min-area behaves like min-power, which holds here by construction).
enum class OptimizeFor { kDelay, kPower };

/// How don't cares are assigned before conventional optimization.
enum class DcPolicy {
  kConventional,        ///< all DCs left to the minimizer (the baseline)
  kRankingFraction,     ///< Fig. 3, top `ranking_fraction` of the ranked list
  kRankingIncremental,  ///< ablation variant with neighbor-count updates
  kLcfThreshold,        ///< Fig. 7, local-complexity-factor gated
  kAllReliability,      ///< every majority-phase DC assigned (fraction = 1)
};

/// How far run_flow had to descend its graceful-degradation ladder
/// (DESIGN.md §10). Each level trades result quality for completion:
///   kNone          — full flow with exact-effort ESPRESSO
///   kHeuristic     — single-pass ESPRESSO: the canonical spec with
///                    `espresso(0)` in place of `espresso`
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

struct FlowOptions {
  OptimizeFor objective = OptimizeFor::kPower;
  double ranking_fraction = 0.5;  ///< for kRankingFraction / kRankingIncremental
  double lcf_threshold = 0.55;    ///< for kLcfThreshold
  /// Assign tied (on == off neighbors) DCs to 0 as in the Fig.-7
  /// pseudocode; off by default (see lcf_assign).
  bool lcf_assign_balanced = false;
  /// Run the structurally different "second opinion" recipe (balance ->
  /// SDC-based node refactoring -> balance) before mapping — the analogue
  /// of the paper's ABC resyn2rs cross-validation.
  bool resyn_recipe = false;
  /// Target standard-cell library; null selects the built-in generic70.
  const CellLibrary* library = nullptr;
  /// Share common kernels across outputs before factoring (GKX-lite);
  /// functionally neutral, typically saves area on multi-output specs.
  bool use_extraction = false;
};

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

/// Runs the full flow on a specification: the pipeline
/// `flow::canonical_flow_spec(policy, options)` on a flow::Design of
/// `spec`, inside a degradation ladder, under the calling thread's exec
/// budget (exec::BudgetScope), which the thread pool hands on to the
/// flow's workers. No-throw by design: budget trips, injected faults and
/// internal errors make it descend the ladder documented on
/// DegradationLevel; the worst case is a kPartial result whose
/// FlowResult::status carries the terminal failure. A cancellation and an
/// invalid argument go straight to kPartial; the latter includes a knob
/// the policy reads out of range (ranking_fraction outside [0, 1],
/// lcf_threshold outside (0, 1), NaN included), rejected before any pass
/// runs. The flow analyzes under the paper's fault model; a pipeline
/// names any other with `@model` annotations (DESIGN.md §16).
FlowResult run_flow(const IncompleteSpec& spec, DcPolicy policy,
                    const FlowOptions& options = {});

namespace flow {

/// The pipeline spec run_flow runs for `policy`/`options` on its first
/// rung, parameters rendered with format_double.
std::string canonical_flow_spec(DcPolicy policy, const FlowOptions& options);

}  // namespace flow
}  // namespace rdc
