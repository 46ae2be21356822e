#include "flow/synthesis_flow.hpp"

#include <string>
#include <utility>

#include "common/format.hpp"
#include "exec/budget.hpp"
#include "exec/fault.hpp"
#include "flow/pipeline.hpp"
#include "obs/events.hpp"
#include "obs/trace.hpp"

namespace rdc {
namespace {

const char* policy_name(DcPolicy policy) {
  switch (policy) {
    case DcPolicy::kConventional: return "conventional";
    case DcPolicy::kRankingFraction: return "ranking_fraction";
    case DcPolicy::kRankingIncremental: return "ranking_incremental";
    case DcPolicy::kLcfThreshold: return "lcf_threshold";
    case DcPolicy::kAllReliability: return "all_reliability";
  }
  return "unknown";
}

std::string map_suffix(const FlowOptions& options) {
  return options.objective == OptimizeFor::kDelay ? " | balance | map:delay"
                                                  : " | map:power";
}

/// The ladder's last functional rung as a spec: no minimization (raw
/// minterm covers), remaining DCs forced to 0, plain factoring (no
/// resyn/extraction) so the rung's cost stays proportional to the spec.
std::string conventional_fallback_spec(const FlowOptions& options) {
  return "assign:zero | covers:minterm | factor | aig" + map_suffix(options) +
         " | analyze | error_rate";
}

/// The canonical flow for `policy`/`options` with `espresso` as its
/// minimization pass: "espresso" on rung 0, "espresso(0)" on rung 1.
std::string flow_spec(DcPolicy policy, const FlowOptions& options,
                      const char* espresso) {
  std::string spec;
  switch (policy) {
    case DcPolicy::kConventional:
      spec = "assign:conventional";
      break;
    case DcPolicy::kRankingFraction:
      spec = "assign:ranking(" + format_double(options.ranking_fraction) + ")";
      break;
    case DcPolicy::kRankingIncremental:
      spec = "assign:ranking_inc(" + format_double(options.ranking_fraction) +
             ")";
      break;
    case DcPolicy::kLcfThreshold:
      spec = "assign:lcf(" + format_double(options.lcf_threshold) +
             (options.lcf_assign_balanced ? ",balanced)" : ")");
      break;
    case DcPolicy::kAllReliability:
      spec = "assign:all";
      break;
  }
  spec += " | ";
  spec += espresso;
  spec += " | ";
  spec += options.use_extraction ? "extract" : "factor | aig";
  if (options.resyn_recipe) spec += " | resyn";
  spec += map_suffix(options);
  spec += " | analyze | error_rate";
  return spec;
}

/// Moves a successfully run Design's artifacts into a FlowResult (status
/// OK, degradation kNone; the ladder overwrites the latter).
FlowResult take_flow_result(flow::Design&& design) {
  return FlowResult{std::move(design.working()), std::move(design.netlist()),
                    design.stats,               design.error_rate,
                    design.assignment,          std::move(design.report),
                    {},                         DegradationLevel::kNone};
}

/// One rung: `pipeline_spec`, once parsed, passes the rung's fault `site`
/// and runs over a fresh Design of `spec`. Throws StatusError on failure
/// so the ladder's exec::capture sees a typed error.
FlowResult run_rung(const std::string& pipeline_spec, exec::FaultSite site,
                    const IncompleteSpec& spec, const CellLibrary* library) {
  exec::Result<flow::Pipeline> pipeline = flow::parse_pipeline(pipeline_spec);
  if (!pipeline.ok()) throw exec::StatusError(pipeline.status());
  exec::fault_point(site);
  flow::Design design(spec, library);
  if (exec::Status status = pipeline->run(design); !status.ok())
    throw exec::StatusError(std::move(status));
  return take_flow_result(std::move(design));
}

/// Stamps the §10 report-schema additions onto a finished result.
void finalize(FlowResult& result, const IncompleteSpec& spec, DcPolicy policy,
              DegradationLevel level, const exec::Status& reason) {
  result.degradation = level;
  obs::Record& metrics = result.report.metrics;
  metrics.set("name", spec.name());
  metrics.set("policy", policy_name(policy));
  metrics.set("inputs", spec.num_inputs());
  metrics.set("outputs", spec.num_outputs());
  metrics.set("status", status_code_name(result.status.code()));
  metrics.set("degradation_level", static_cast<int>(level));
  metrics.set("degradation", degradation_level_name(level));
  if (level != DegradationLevel::kNone && !reason.ok())
    metrics.set("degraded_reason", reason.to_string());
  if (level != DegradationLevel::kNone && obs::events_enabled()) {
    obs::Record fields;
    fields.set("circuit", spec.name());
    fields.set("level", degradation_level_name(level));
    if (!reason.ok()) fields.set("reason", reason.to_string());
    obs::emit_event("flow.degrade", fields);
  }
}

FlowResult make_partial(const IncompleteSpec& spec) {
  return FlowResult{spec, Netlist(spec.num_inputs()), {}, 0.0,
                    {},   {},                         {}, DegradationLevel::kPartial};
}

}  // namespace

const char* degradation_level_name(DegradationLevel level) {
  switch (level) {
    case DegradationLevel::kNone: return "none";
    case DegradationLevel::kHeuristic: return "heuristic";
    case DegradationLevel::kConventional: return "conventional";
    case DegradationLevel::kPartial: return "partial";
  }
  return "unknown";
}

FlowResult run_flow(const IncompleteSpec& spec, DcPolicy policy,
                    const FlowOptions& options) {
  RDC_SPAN("flow.run");
  // Rung 0: the full-quality flow with exact-effort ESPRESSO. A policy
  // knob out of range fails its parse: the assign pass range-checks its
  // argument.
  exec::Result<FlowResult> exact = exec::capture([&] {
    return run_rung(flow::canonical_flow_spec(policy, options),
                    exec::FaultSite::kFlowExact, spec, options.library);
  });
  if (exact.ok()) {
    finalize(*exact, spec, policy, DegradationLevel::kNone, exec::Status());
    return std::move(*exact);
  }
  exec::Status reason = exact.status();

  // A cancellation is a request to stop, and an invalid argument (a knob
  // out of range) a caller bug; neither is worth retrying with less
  // effort, so both skip to the partial result.
  if (reason.code() != exec::StatusCode::kCancelled &&
      reason.code() != exec::StatusCode::kInvalidArgument) {
    // Rung 1: heuristic ESPRESSO — single expand+irredundant pass.
    exec::Result<FlowResult> heuristic = exec::capture([&] {
      return run_rung(flow_spec(policy, options, "espresso(0)"),
                      exec::FaultSite::kFlowHeuristic, spec, options.library);
    });
    if (heuristic.ok()) {
      finalize(*heuristic, spec, policy, DegradationLevel::kHeuristic,
               reason);
      return std::move(*heuristic);
    }

    // Rung 2: conventional-only assignment, with the budget MASKED so it
    // terminates even after a deadline has expired.
    exec::Result<FlowResult> fallback = exec::capture([&] {
      exec::BudgetScope mask(nullptr);
      return run_rung(conventional_fallback_spec(options),
                      exec::FaultSite::kFlowConventional, spec,
                      options.library);
    });
    if (fallback.ok()) {
      finalize(*fallback, spec, policy, DegradationLevel::kConventional,
               reason);
      return std::move(*fallback);
    }
    reason = fallback.status();
  }

  // Partial result: no netlist, but still a well-formed FlowResult with a
  // parseable report so harnesses can emit an error row and move on.
  FlowResult partial = make_partial(spec);
  partial.status = reason;
  partial.status.with_context("flow");
  finalize(partial, spec, policy, DegradationLevel::kPartial, reason);
  return partial;
}

namespace flow {

std::string canonical_flow_spec(DcPolicy policy, const FlowOptions& options) {
  return flow_spec(policy, options, "espresso");
}

}  // namespace flow
}  // namespace rdc
