#include "flow/pipeline.hpp"

#include <cctype>
#include <cstring>
#include <utility>

#include "exec/budget.hpp"
#include "exec/fault.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rdc::flow {

namespace {

/// End-of-run stamp: the deterministic result metrics, in the same order
/// the pre-pass-manager flow wrote them. Each block is gated on the
/// artifact actually existing so partial pipelines ("espresso only") and
/// the fallback rung (no assignment statistics) stamp only what they
/// computed.
void stamp_result_metrics(Design& design) {
  obs::Record& metrics = design.report.metrics;
  if (design.has_assignment) {
    metrics.set("name", design.spec().name());
    metrics.set("policy", design.policy);
    metrics.set("inputs", design.spec().num_inputs());
    metrics.set("outputs", design.spec().num_outputs());
    metrics.set("dc_before", design.assignment.dc_before);
    metrics.set("dc_assigned", design.assignment.assigned);
    metrics.set("dc_assigned_on", design.assignment.assigned_on);
  }
  if (design.has(Artifact::kStats)) {
    metrics.set("gates", design.stats.gates);
    metrics.set("area", design.stats.area);
    metrics.set("delay_ps", design.stats.delay_ps);
    metrics.set("power_uw", design.stats.power_uw);
  }
  if (design.has(Artifact::kErrorRate)) {
    metrics.set("error_rate", design.error_rate);
    // Estimator provenance only when a sampled pass ran: exact flows keep
    // the pre-existing report schema byte-for-byte.
    if (design.estimator.sampled) {
      metrics.set("error_rate_estimator", "sampled");
      metrics.set("error_rate_ci_low", design.estimator.ci_low);
      metrics.set("error_rate_ci_high", design.estimator.ci_high);
      metrics.set("error_rate_samples", design.estimator.samples);
    }
  }
  // Fault-model provenance only when a reliability pass was annotated or
  // the options selected a non-default model (DESIGN.md §16): pure-default
  // runs keep the pre-existing report schema byte-for-byte.
  if (!design.fault_model_label.empty())
    metrics.set("fault_model", design.fault_model_label);
}

}  // namespace

std::string Pipeline::to_string() const {
  std::string out;
  for (const auto& pass : passes_) {
    if (!out.empty()) out += " | ";
    out += pass->spec();
  }
  return out;
}

exec::Status Pipeline::run(Design& design) const {
  // Harness-independent telemetry entry point: any pipeline run picks up
  // RDC_METRICS without the caller having to opt in.
  obs::metrics_init_from_env();
  // A model that does not fit the spec fails the run before any pass does
  // work, under the name of the pass that carries it.
  for (const auto& pass : passes_)
    if (const auto& model = pass->fault_model(); model.has_value())
      if (exec::Status status = model->check_inputs(design.spec().num_inputs());
          !status.ok())
        return status.with_context(pass->name());
  const bool events = obs::events_enabled();
  const std::uint64_t run_start_ns = obs::trace_now_ns();
  if (events) {
    obs::Record fields;
    fields.set("circuit", design.spec().name());
    fields.set("spec", to_string());
    obs::emit_event("pipeline.begin", fields);
  }
  exec::Status run_status;
  for (const auto& pass : passes_) {
    // Budget checkpoint at the pass boundary. check_now() so an expired
    // deadline is seen here, not on some 64th-stride poll deep inside the
    // pass.
    if (exec::ExecBudget* budget = exec::current_budget()) {
      exec::Status status = budget->check_now();
      if (!status.ok()) {
        run_status = status.with_context("pipeline");
        break;
      }
    }
    if (events) {
      obs::Record fields;
      fields.set("pass", pass->name());
      fields.set("circuit", design.spec().name());
      obs::emit_event("pass.begin", fields);
    }
    obs::Span span(pass->name());
    const std::uint64_t start_ns = obs::trace_now_ns();
    obs::PerfCounts perf_begin;
    if (obs::perf_collecting()) perf_begin = obs::perf_read();
    exec::Status status;
    try {
      exec::fault_point(exec::FaultSite::kPipelinePass);
      status = pass->run(design);
    } catch (...) {
      status = exec::status_from_current_exception();
    }
    const double wall_ms =
        static_cast<double>(obs::trace_now_ns() - start_ns) / 1e6;
    obs::PerfCounts perf;
    if (perf_begin.valid) perf = obs::perf_delta(perf_begin, obs::perf_read());
    if (const char* label = pass->phase()) {
      auto& phases = design.report.phases;
      // Adjacent passes of one family (factor/aig/balance/resyn →
      // "factor_aig") coalesce into a single report row.
      if (!phases.empty() && std::strcmp(phases.back().name, label) == 0) {
        phases.back().wall_ms += wall_ms;
        phases.back().perf += perf;
      } else {
        phases.push_back({label, wall_ms, perf});
      }
    }
    if (events) {
      obs::Record fields;
      fields.set("pass", pass->name());
      fields.set("circuit", design.spec().name());
      fields.set("status", exec::status_code_name(status.code()));
      fields.set("wall_ms", wall_ms);
      if (perf.valid) {
        fields.set("cycles", perf.cycles);
        fields.set("ipc", perf.ipc());
      }
      obs::emit_event("pass.end", fields);
    }
    if (!status.ok()) {
      run_status = status.with_context(pass->name());
      break;
    }
  }
  if (run_status.ok()) stamp_result_metrics(design);
  if (events) {
    obs::Record fields;
    fields.set("circuit", design.spec().name());
    fields.set("status", exec::status_code_name(run_status.code()));
    fields.set("wall_ms",
               static_cast<double>(obs::trace_now_ns() - run_start_ns) / 1e6);
    obs::emit_event("pipeline.end", fields);
  }
  return run_status;
}

// --- spec parser ----------------------------------------------------------

namespace {

bool is_name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
         c == ':' || c == '.' || c == '-';
}

exec::Status parse_error(const std::string& what, std::size_t offset) {
  return exec::Status(exec::StatusCode::kInvalidArgument,
                      "pipeline spec: " + what + " at offset " +
                          std::to_string(offset));
}

}  // namespace

exec::Result<Pipeline> parse_pipeline(std::string_view spec) {
  Pipeline pipeline;
  std::size_t at = 0;
  const auto skip_ws = [&] {
    while (at < spec.size() &&
           std::isspace(static_cast<unsigned char>(spec[at])) != 0)
      ++at;
  };

  // Reads an optional "(arg, arg, ...)" list after the name of its owner,
  // a pass or a fault model (`kind`), into `args`.
  const auto read_args = [&](const char* kind, const std::string& owner,
                             std::vector<std::string>& args) -> exec::Status {
    skip_ws();
    if (at == spec.size() || spec[at] != '(') return {};
    const std::size_t open_at = at;
    ++at;
    while (true) {
      skip_ws();
      const std::size_t arg_begin = at;
      while (at < spec.size() && spec[at] != ',' && spec[at] != ')' &&
             spec[at] != '|' && spec[at] != '(')
        ++at;
      if (at == spec.size() || spec[at] == '|' || spec[at] == '(')
        return parse_error("unclosed '('", open_at);
      std::string arg(spec.substr(arg_begin, at - arg_begin));
      while (!arg.empty() &&
             std::isspace(static_cast<unsigned char>(arg.back())) != 0)
        arg.pop_back();
      if (arg.empty())
        return parse_error(std::string("empty argument for ") + kind + " '" +
                               owner + "'",
                           arg_begin);
      args.push_back(std::move(arg));
      if (spec[at] == ')') {
        ++at;
        return {};
      }
      ++at;  // ','
    }
  };

  skip_ws();
  if (at == spec.size()) return parse_error("empty pipeline", at);
  while (true) {
    // name
    const std::size_t name_begin = at;
    while (at < spec.size() && is_name_char(spec[at])) ++at;
    if (at == name_begin)
      return parse_error(at < spec.size()
                             ? "expected a pass name, got '" +
                                   std::string(1, spec[at]) + "'"
                             : "expected a pass name",
                         at);
    const std::string name(spec.substr(name_begin, at - name_begin));

    // optional (arg, arg, ...)
    std::vector<std::string> args;
    if (exec::Status status = read_args("pass", name, args); !status.ok())
      return status;

    std::unique_ptr<Pass> pass;
    if (exec::Status status = make_pass(name, args, pass); !status.ok())
      return parse_error(status.message(), name_begin);

    // optional @model fault-model annotation (reliability passes only)
    skip_ws();
    if (at < spec.size() && spec[at] == '@') {
      const std::size_t at_sign = at;
      ++at;
      skip_ws();
      const std::size_t model_begin = at;
      while (at < spec.size() && is_name_char(spec[at])) ++at;
      if (at == model_begin)
        return parse_error("expected a fault model name after '@'",
                           model_begin);
      const std::string model_name(
          spec.substr(model_begin, at - model_begin));
      std::vector<std::string> model_args;
      if (exec::Status status =
              read_args("fault model", model_name, model_args);
          !status.ok())
        return status;
      reliability::FaultModelSpec model;
      if (exec::Status status =
              reliability::FaultModelSpec::parse(model_name, model_args,
                                                 model);
          !status.ok())
        return parse_error(status.message(), model_begin);
      if (exec::Status status = pass->set_fault_model(model); !status.ok())
        return parse_error(status.message(), at_sign);
    }
    pipeline.append(std::move(pass));

    skip_ws();
    if (at == spec.size()) break;
    if (spec[at] != '|')
      return parse_error("expected '|' or end of spec, got '" +
                             std::string(1, spec[at]) + "'",
                         at);
    ++at;
    skip_ws();
    if (at == spec.size()) return parse_error("trailing '|'", at - 1);
  }
  return pipeline;
}

}  // namespace rdc::flow
