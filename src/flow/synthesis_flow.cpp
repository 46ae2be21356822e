#include "flow/synthesis_flow.hpp"

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

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

/// Up-front FlowOptions validation, per policy: only the knobs the policy
/// actually reads are checked, so e.g. a garbage lcf_threshold cannot fail
/// a conventional run. The negated comparisons are deliberate — they also
/// reject NaN.
exec::Status validate_options(DcPolicy policy, const FlowOptions& options,
                              unsigned num_inputs) {
  // A model that does not fit the spec's width (bitflip(k) with k > n, a
  // weight count other than n) would otherwise surface only after every
  // ladder rung had run assign and map and then thrown in error_rate.
  if (exec::Status status = options.fault_model.check_inputs(num_inputs);
      !status.ok())
    return status;
  switch (policy) {
    case DcPolicy::kRankingFraction:
    case DcPolicy::kRankingIncremental:
      if (!(options.ranking_fraction >= 0.0 &&
            options.ranking_fraction <= 1.0))
        return exec::Status(
            exec::StatusCode::kInvalidArgument,
            "ranking_fraction must be in [0, 1], got " +
                std::to_string(options.ranking_fraction));
      break;
    case DcPolicy::kLcfThreshold:
      if (!(options.lcf_threshold > 0.0 && options.lcf_threshold < 1.0))
        return exec::Status(exec::StatusCode::kInvalidArgument,
                            "lcf_threshold must be in (0, 1), got " +
                                std::to_string(options.lcf_threshold));
      break;
    case DcPolicy::kConventional:
    case DcPolicy::kAllReliability:
      break;
  }
  return {};
}

/// Parses and runs a canonical spec over `design`; throws StatusError on
/// any failure so the callers' exception→Status boundaries see a typed
/// error. Canonical specs always parse — a parse failure here is a bug.
void run_canonical(const std::string& spec_string, flow::Design& design) {
  exec::Result<flow::Pipeline> pipeline = flow::parse_pipeline(spec_string);
  if (!pipeline.ok()) throw exec::StatusError(pipeline.status());
  if (exec::Status status = pipeline->run(design); !status.ok())
    throw exec::StatusError(std::move(status));
}

/// One full run of the flow's pipeline at a given ESPRESSO effort. Throws
/// on budget trips / injected faults; the ladder in run_flow catches.
FlowResult run_rung(const IncompleteSpec& spec, DcPolicy policy,
                    const FlowOptions& options, bool heuristic) {
  flow::Design design(spec, options);
  if (heuristic) design.espresso.max_iterations = 0;
  run_canonical(flow::canonical_flow_spec(policy, options), design);
  return flow::take_flow_result(std::move(design));
}

/// The ladder's last functional rung: no minimization at all. Remaining
/// DCs are forced to 0 (the paper's power-friendly default phase), covers
/// are raw minterm lists, and the whole rung runs with the budget MASKED so
/// it terminates even after a deadline has expired.
FlowResult run_conventional_fallback(const IncompleteSpec& spec,
                                     const FlowOptions& options) {
  exec::BudgetScope mask(nullptr);
  exec::fault_point(exec::FaultSite::kFlowConventional);
  flow::Design design(spec, options);
  run_canonical(flow::conventional_fallback_spec(options), design);
  FlowResult result = flow::take_flow_result(std::move(design));
  result.degradation = DegradationLevel::kConventional;
  return result;
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

Netlist synthesize(const IncompleteSpec& assigned, OptimizeFor objective) {
  RDC_SPAN("flow.synthesize");
  for (const auto& f : assigned.outputs())
    if (!f.fully_specified())
      throw std::invalid_argument("synthesize: spec must be fully assigned");
  // The lower half of the flow as a pipeline spec. On a fully assigned spec
  // the espresso pass is pure minimization (no DCs left to assign).
  flow::Design design(assigned);
  run_canonical(objective == OptimizeFor::kDelay
                    ? "espresso | factor | aig | balance | map:delay"
                    : "espresso | factor | aig | map:power",
                design);
  return std::move(design.netlist());
}

FlowResult run_flow(const IncompleteSpec& spec, DcPolicy policy,
                    const FlowOptions& options) {
  RDC_SPAN("flow.run");
  // Reject out-of-range policy knobs before any work happens; a typo'd
  // fraction is a caller bug, not something to degrade around.
  if (exec::Status invalid =
          validate_options(policy, options, spec.num_inputs());
      !invalid.ok()) {
    FlowResult partial = make_partial(spec);
    partial.status = std::move(invalid.with_context("flow"));
    finalize(partial, spec, policy, DegradationLevel::kPartial,
             partial.status);
    return partial;
  }

  // Install the caller-provided budget (if any) for the whole flow; the
  // thread pool re-installs it on every worker of the fan-out.
  std::optional<exec::BudgetScope> scope;
  if (options.budget != nullptr) scope.emplace(options.budget);

  // Rung 0: the full-quality flow with exact-effort ESPRESSO.
  exec::Result<FlowResult> exact = exec::capture([&] {
    exec::fault_point(exec::FaultSite::kFlowExact);
    return run_rung(spec, policy, options, /*heuristic=*/false);
  });
  if (exact.ok()) {
    finalize(*exact, spec, policy, DegradationLevel::kNone, exec::Status());
    return std::move(*exact);
  }
  exec::Status reason = exact.status();

  // A cancellation is a request to stop, not to try harder with less
  // effort; skip straight to the partial result.
  if (reason.code() != exec::StatusCode::kCancelled) {
    // Rung 1: heuristic ESPRESSO — single expand+irredundant pass.
    exec::Result<FlowResult> heuristic = exec::capture([&] {
      exec::fault_point(exec::FaultSite::kFlowHeuristic);
      return run_rung(spec, policy, options, /*heuristic=*/true);
    });
    if (heuristic.ok()) {
      finalize(*heuristic, spec, policy, DegradationLevel::kHeuristic,
               reason);
      return std::move(*heuristic);
    }

    // Rung 2: conventional-only assignment, budget masked.
    exec::Result<FlowResult> fallback = exec::capture(
        [&] { return run_conventional_fallback(spec, options); });
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

}  // namespace rdc
