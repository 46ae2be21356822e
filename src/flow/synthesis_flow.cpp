#include "flow/synthesis_flow.hpp"

#include <string>
#include <string_view>
#include <utility>

#include "exec/budget.hpp"
#include "exec/fault.hpp"
#include "flow/pipeline.hpp"
#include "obs/events.hpp"
#include "obs/trace.hpp"

namespace rdc {
namespace {

/// Rung 1's text: `pipeline` with each bare `espresso` pass rendered as
/// `espresso(0)`, the single expand+irredundant pass.
std::string heuristic_spec(const flow::Pipeline& pipeline) {
  const std::string text = pipeline.to_string();
  std::string out;
  for (std::size_t begin = 0; begin <= text.size();) {
    std::size_t end = text.find(" | ", begin);
    if (end == std::string::npos) end = text.size();
    const std::string_view pass(text.data() + begin, end - begin);
    if (!out.empty()) out.append(" | ");
    out.append(pass == "espresso" ? "espresso(0)" : pass);
    begin = end + 3;
  }
  return out;
}

/// Rung 2's text: no minimization (raw minterm covers), remaining DCs
/// forced to 0, plain factoring (no resyn/extraction) so the rung's cost
/// stays proportional to the spec. It maps with `pipeline`'s mapper and
/// rates errors under the model of its error-rate pass, if annotated.
std::string conventional_fallback_spec(const flow::Pipeline& pipeline) {
  bool delay = false;
  std::string model;
  for (std::size_t i = 0; i < pipeline.size(); ++i) {
    const flow::Pass& pass = pipeline.at(i);
    const std::string_view name = pass.name();
    if (name == "map:delay") delay = true;
    if (name.starts_with("error_rate") && pass.fault_model())
      model = flow::model_annotation(*pass.fault_model());
  }
  std::string spec = "assign:zero | covers:minterm | factor | aig | ";
  spec.append(delay ? "balance | map:delay" : "map:power");
  spec.append(" | analyze | error_rate").append(model);
  return spec;
}

/// The report's "policy" literal: that of `pipeline`'s last assign pass
/// that records one, or nullptr.
const char* pipeline_policy(const flow::Pipeline& pipeline) {
  const char* policy = nullptr;
  for (std::size_t i = 0; i < pipeline.size(); ++i)
    if (const char* p = flow::assign_policy(pipeline.at(i))) policy = p;
  return policy;
}

/// Moves a successfully run Design's artifacts into a FlowResult (status
/// OK, degradation kNone; the ladder overwrites the latter).
FlowResult take_flow_result(flow::Design&& design) {
  return FlowResult{std::move(design.working()), std::move(design.netlist()),
                    design.stats,               design.error_rate,
                    design.assignment,          std::move(design.report),
                    {},                         DegradationLevel::kNone};
}

/// One rung: `pipeline` passes the rung's fault `site` and runs over a
/// fresh Design of `spec`. Throws StatusError on failure so the ladder's
/// exec::capture sees a typed error.
FlowResult run_rung(const flow::Pipeline& pipeline, exec::FaultSite site,
                    const IncompleteSpec& spec, const CellLibrary* library) {
  exec::fault_point(site);
  flow::Design design(spec, library);
  if (exec::Status status = pipeline.run(design); !status.ok())
    throw exec::StatusError(std::move(status));
  return take_flow_result(std::move(design));
}

/// Parses `text` and runs it as one rung (see above).
FlowResult run_rung(const std::string& text, exec::FaultSite site,
                    const IncompleteSpec& spec, const CellLibrary* library) {
  exec::Result<flow::Pipeline> pipeline = flow::parse_pipeline(text);
  if (!pipeline.ok()) throw exec::StatusError(pipeline.status());
  return run_rung(*pipeline, site, spec, library);
}

/// Stamps the §10 report-schema additions onto a finished result.
/// `policy` is the pipeline's literal (nullptr: no "policy" key).
void finalize(FlowResult& result, const IncompleteSpec& spec,
              const char* policy, DegradationLevel level,
              const exec::Status& reason) {
  result.degradation = level;
  obs::Record& metrics = result.report.metrics;
  metrics.set("name", spec.name());
  if (policy != nullptr) metrics.set("policy", policy);
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

/// The ladder's last resort: no netlist, but still a well-formed FlowResult
/// with a parseable report so harnesses can emit an error row and move on.
FlowResult make_partial(const IncompleteSpec& spec, const char* policy,
                        const exec::Status& reason) {
  FlowResult partial{spec, Netlist(spec.num_inputs()), {}, 0.0, {}, {}, {},
                     DegradationLevel::kPartial};
  partial.status = reason;
  partial.status.with_context("flow");
  finalize(partial, spec, policy, DegradationLevel::kPartial, reason);
  return partial;
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

FlowResult run_flow(const IncompleteSpec& spec, std::string_view pipeline,
                    const CellLibrary* library) {
  RDC_SPAN("flow.run");
  // Text that does not parse (a knob out of range among them) is a caller
  // bug, not worth any rung.
  exec::Result<flow::Pipeline> parsed = flow::parse_pipeline(pipeline);
  if (!parsed.ok()) return make_partial(spec, nullptr, parsed.status());
  const flow::Pipeline& exact_pipeline = *parsed;
  const char* policy = pipeline_policy(exact_pipeline);

  // Rung 0: the text as given, with exact-effort ESPRESSO.
  exec::Result<FlowResult> exact = exec::capture([&] {
    return run_rung(exact_pipeline, exec::FaultSite::kFlowExact, spec,
                    library);
  });
  if (exact.ok()) {
    finalize(*exact, spec, policy, DegradationLevel::kNone, exec::Status());
    return std::move(*exact);
  }
  exec::Status reason = exact.status();

  // A cancellation is a request to stop, and an invalid argument (a fault
  // model that does not fit the spec) a caller bug; neither is worth
  // retrying with less effort, so both skip to the partial result.
  if (reason.code() != exec::StatusCode::kCancelled &&
      reason.code() != exec::StatusCode::kInvalidArgument) {
    // Rung 1: heuristic ESPRESSO — single expand+irredundant pass.
    exec::Result<FlowResult> heuristic = exec::capture([&] {
      return run_rung(heuristic_spec(exact_pipeline),
                      exec::FaultSite::kFlowHeuristic, spec, library);
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
      return run_rung(conventional_fallback_spec(exact_pipeline),
                      exec::FaultSite::kFlowConventional, spec, library);
    });
    if (fallback.ok()) {
      finalize(*fallback, spec, policy, DegradationLevel::kConventional,
               reason);
      return std::move(*fallback);
    }
    reason = fallback.status();
  }

  return make_partial(spec, policy, reason);
}

}  // namespace rdc
