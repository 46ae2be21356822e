// The two in-process workloads: flow_table1 (the paper's experiment, one
// cold flow per Table-1 circuit) and reliability_sweep (the DC-assignment
// policies swept over large synthetic specs under three fault models).
#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "bench.hpp"
#include "benchdata/suite.hpp"
#include "common/rng.hpp"
#include "reliability/error_rate.hpp"
#include "synthetic/generator.hpp"

namespace perfbench {

using namespace rdc;

namespace {

/// Same implementation on every care minterm, no DC left.
std::string check_assigned(const IncompleteSpec& working,
                           const IncompleteSpec& spec) {
  for (unsigned o = 0; o < spec.num_outputs(); ++o) {
    const TernaryTruthTable& f = working.output(o);
    BitVec diff = f.on_bits();
    diff ^= spec.output(o).on_bits();
    diff.and_not(spec.output(o).dc_bits());
    if (f.dc_count() != 0 || diff.count() != 0)
      return spec.name() + ": implementation leaves DCs or differs from the "
                           "spec on care minterms";
  }
  return {};
}

}  // namespace

// --- flow_table1 --------------------------------------------------------------

Outcome run_flow_table1(const Config& config, const SamplingRule& rule) {
  Outcome out;
  std::vector<IncompleteSpec> suite;
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t t0 = now_ns();
    suite = table1_suite();
    out.setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
  }
  out.layers["setup.suite_ms"] = median(out.setup_s) * 1e3;
  const flow::Pipeline pipeline = must_parse(kFlowPipeline);
  const std::vector<flow::Pipeline> passes = split_passes(pipeline);

  // Warm-up, excluded from every metric: cold flows of the fast circuits.
  warm_up([&] {
    for (const IncompleteSpec& spec : suite)
      if (std::ranges::find(kFastCircuits, spec.name()) !=
          std::end(kFastCircuits)) {
        flow::Design design(spec);
        (void)pipeline.run(design);
      }
  });

  Rng order_rng(config.seed);
  std::vector<std::size_t> order(suite.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Result metrics of each circuit's first flow, for the exact-repeat
  // check. Compared by member: the traced form stamps the same fields in
  // another order.
  std::vector<std::optional<obs::JsonValue>> first_metrics(suite.size());
  Tracer tracer;
  std::uint64_t item_id = 0;
  LayerCounts counts;

  const auto round = [&](Tracer* traced) {
    std::shuffle(order.begin(), order.end(), order_rng);
    double round_ms = 0.0;
    for (const std::size_t i : order) {
      flow::Design design(suite[i]);
      exec::Status status;
      const std::uint64_t t0 = now_ns();
      if (traced != nullptr) {
        SpanScope span(traced, "circuit", item_id);
        status = run_traced(passes, design, *traced, item_id, span.id());
      } else {
        status = pipeline.run(design);
      }
      const double ms = ms_between(t0, now_ns());
      round_ms += ms;
      if (traced == nullptr) out.latency_ms.push_back(ms);
      // Everything below is outside the timed region.
      std::string problem;
      if (!status.ok()) {
        problem = suite[i].name() + ": " + status.to_string();
      } else {
        const CountersPaused paused;
        problem = check_mapped(design);
        obs::JsonValue metrics = result_metrics(design);
        if (!first_metrics[i]) {
          first_metrics[i] = std::move(metrics);
        } else if (problem.empty() &&
                   !json_same_members(metrics, *first_metrics[i])) {
          problem = suite[i].name() + ": result metrics differ between rounds";
        }
      }
      out.item(problem);
      if (traced != nullptr) {
        {
          SpanScope span(traced, "obs.report_json", item_id);
          (void)design.report.to_json();
        }
        counts.add_flow(design);
      }
      ++item_id;
    }
    return round_ms;
  };

  const RoundTotals totals = drive_rounds(config, rule, out, tracer, round);
  out.quality = quality_of(first_metrics);
  if (config.trace) {
    counts.report(totals.traced, out);
    tracer.write(config.trace_file);
  }
  return out;
}

// --- reliability_sweep --------------------------------------------------------

namespace {

/// One spec per input count; the seed picks their contents.
std::vector<IncompleteSpec> sweep_specs(std::uint64_t seed) {
  std::vector<IncompleteSpec> specs;
  for (unsigned n = 16; n <= 18; ++n) {
    Rng rng(seed * 1000003u + n);
    specs.push_back(generate_spec("sweep_n" + std::to_string(n),
                                  options_for_target(n, 0.7, 0.55), rng));
  }
  return specs;
}

struct SweepModel {
  std::vector<flow::Pipeline> assign;  ///< the 12 steps, in order
  flow::Pipeline evaluate;             ///< covers:minterm | error_rate
  std::vector<flow::Pipeline> evaluate_passes;
  std::string assign_layer;  ///< span name of the assign steps
  bool default_path;
};

std::vector<SweepModel> sweep_models() {
  std::vector<SweepModel> models;
  for (const std::string model : {"", "@bitflip(2)", "@stuckat"}) {
    SweepModel m;
    for (const char* f : {"0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7",
                          "0.8", "0.9", "1"})
      m.assign.push_back(must_parse("assign:ranking(" + std::string(f) + ")" +
                                    model));
    m.assign.push_back(must_parse("assign:lcf(0.55)" + model));
    m.assign.push_back(must_parse("assign:ranking_inc(0.5)" + model));
    m.evaluate = must_parse("covers:minterm | error_rate" + model);
    m.evaluate_passes = split_passes(m.evaluate);
    m.assign_layer = layer_of(m.assign.front().at(0));
    m.default_path = model.empty();
    models.push_back(std::move(m));
  }
  return models;
}

/// Forces every DC the assignment step left to 0 (the conventional
/// default), so the minterm covers and the exact rate see a complete
/// implementation.
void zero_fill(flow::Design& design) {
  for (TernaryTruthTable& f : design.working().outputs())
    f = f.with_all_dc_assigned(Phase::kZero);
}

}  // namespace

Outcome run_reliability_sweep(const Config& config, const SamplingRule& rule) {
  Outcome out;
  std::vector<IncompleteSpec> specs;
  std::vector<SweepModel> models;
  IncompleteSpec warm_spec;
  std::vector<double> synthetic_ms;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::uint64_t t0 = now_ns();
    specs = sweep_specs(config.seed);
    Rng warm_rng(config.seed);
    warm_spec = generate_spec("warm", options_for_target(12, 0.7, 0.55),
                              warm_rng);
    const std::uint64_t t1 = now_ns();
    models = sweep_models();
    out.setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
    synthetic_ms.push_back(ms_between(t0, t1));
  }
  out.layers["setup.synthetic_ms"] = median(synthetic_ms);

  Tracer tracer;
  std::uint64_t item_id = 0;
  // Per-step (error rate, DCs assigned) of the first round, for the
  // exact-repeat check of later rounds.
  std::vector<std::pair<double, std::uint64_t>> first_round;
  LayerCounts counts;

  // One sweep of one spec; `record` is false for the warm-up.
  const auto sweep = [&](const IncompleteSpec& spec, Tracer* traced,
                         bool record, std::size_t& step_index) {
    double spec_ms = 0.0;
    flow::Design design(spec);
    for (const SweepModel& model : models) {
      for (std::size_t s = 0; s < model.assign.size(); ++s) {
        std::optional<SpanScope> step;
        if (traced != nullptr) step.emplace(traced, "step", item_id);
        const std::uint32_t parent = step ? step->id() : Tracer::kNoParent;
        const std::uint64_t t0 = now_ns();
        exec::Status status;
        {
          SpanScope span(traced, model.assign_layer, item_id, parent);
          status = model.assign[s].run(design);
        }
        const std::uint64_t t1 = now_ns();
        {
          SpanScope span(traced, "bench.zero_fill", item_id, parent);
          zero_fill(design);
        }
        const std::uint64_t t2 = now_ns();
        if (status.ok())
          status = traced != nullptr
                       ? run_traced(model.evaluate_passes, design, *traced,
                                    item_id, parent)
                       : model.evaluate.run(design);
        const double ms = ms_between(t0, t1) + ms_between(t2, now_ns());
        step.reset();
        spec_ms += ms;
        ++item_id;
        if (!record) continue;
        if (traced == nullptr) out.latency_ms.push_back(ms);
        // Everything below is outside the timed region.
        std::string problem;
        if (!status.ok()) {
          problem = spec.name() + ": " + status.to_string();
        } else {
          const CountersPaused paused;
          problem = check_assigned(design.working(), spec);
          const bool ends = s == 0 || s + 1 == model.assign.size();
          if (problem.empty() && model.default_path && ends &&
              design.error_rate != exact_error_rate(design.working(), spec))
            problem = spec.name() + ": tracker rate differs from a fresh "
                                    "exact_error_rate";
          const std::pair<double, std::uint64_t> result{
              design.error_rate, design.assignment.assigned};
          if (step_index == first_round.size()) {
            first_round.push_back(result);
          } else if (problem.empty() && first_round[step_index] != result) {
            problem = spec.name() + ": step result differs between rounds";
          }
        }
        out.item(problem);
        if (traced != nullptr) {
          counts.dc_assigned += static_cast<double>(design.assignment.assigned);
          if (model.default_path)
            counts.default_evaluations += spec.num_outputs();
        }
        ++step_index;
      }
    }
    return spec_ms;
  };

  warm_up([&] {
    std::size_t warm_steps = 0;
    sweep(warm_spec, nullptr, false, warm_steps);
  });

  const auto round = [&](Tracer* traced) {
    double round_ms = 0.0;
    std::size_t step_index = 0;
    for (const IncompleteSpec& spec : specs)
      round_ms += sweep(spec, traced, true, step_index);
    return round_ms;
  };

  const RoundTotals totals = drive_rounds(config, rule, out, tracer, round);
  for (const auto& [rate, assigned] : first_round)
    out.quality.error_rate_mean += rate / first_round.size();
  // The sweep never maps a netlist: area, power and delay do not apply
  // and read the constant 1 (see README.md).
  out.quality.area_total = 1.0;
  out.quality.power_total_uw = 1.0;
  out.quality.delay_mean_ps = 1.0;
  if (config.trace) {
    counts.report(totals.traced, out);
    tracer.write(config.trace_file);
  }
  return out;
}

}  // namespace perfbench
