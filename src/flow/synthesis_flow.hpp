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

#include "exec/budget.hpp"
#include "exec/status.hpp"
#include "mapper/power.hpp"
#include "mapper/tree_map.hpp"
#include "obs/report.hpp"
#include "reliability/assignment.hpp"
#include "reliability/fault_model.hpp"
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
///   kHeuristic     — single-pass ESPRESSO (max_iterations = 0)
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
  /// Deadline/cancellation budget for this flow (not owned). Installed for
  /// the duration of run_flow and propagated to its worker threads; a trip
  /// makes the flow descend the degradation ladder instead of throwing.
  /// Null inherits whatever budget the calling thread already has.
  exec::ExecBudget* budget = nullptr;
  /// Seed for the `error_rate:sampled` pass's Rng. Every sampled pass run
  /// re-seeds from this value, so sampled reports are byte-deterministic
  /// for a fixed (spec, pipeline, seed) triple regardless of thread count.
  std::uint64_t sample_seed = 0x9e3779b97f4a7c15ull;
  /// Fault scenario the reliability passes optimize and analyze against
  /// (DESIGN.md §16). The default, bitflip(1), is the paper's model: its
  /// decisions, fingerprints and report bytes are exactly those of the
  /// pre-FaultModel flow. A per-pass `@model` annotation in a pipeline
  /// spec overrides this per pass.
  reliability::FaultModelSpec fault_model;
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

/// Runs the full flow on a specification. No-throw by design: budget trips,
/// injected faults and internal errors make it descend the ladder
/// documented on DegradationLevel; the worst case is a kPartial result
/// whose FlowResult::status carries the terminal failure. Options are
/// validated up front per policy (ranking_fraction in [0, 1],
/// lcf_threshold in (0, 1)); an out-of-range knob returns a kPartial
/// result with kInvalidArgument without running anything.
///
/// Internally this parses and runs the canonical pipeline spec for the
/// policy (flow/pipeline.hpp); `flow::canonical_flow_spec` exposes it.
FlowResult run_flow(const IncompleteSpec& spec, DcPolicy policy,
                    const FlowOptions& options = {});

/// Lower half of the flow only: factor + AIG + map a fully assigned spec.
Netlist synthesize(const IncompleteSpec& assigned, OptimizeFor objective);

}  // namespace rdc
