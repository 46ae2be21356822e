// Tests for the pass-manager layer (flow/pass.hpp, flow/pipeline.hpp):
// spec-parser round trips and error positions, byte-compatibility of
// run_flow's report JSON with the pre-pass-manager flow, artifact
// invalidation on the Design, harness-owned spans/budget checkpoints,
// degradation-ladder descent under pass-boundary faults, FlowOptions
// validation, and the batch driver.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "exec/budget.hpp"
#include "exec/fault.hpp"
#include "fault_guard.hpp"
#include "flow/batch_supervisor.hpp"
#include "flow/pipeline.hpp"
#include "flow/synthesis_flow.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "pla/pla_io.hpp"

namespace rdc {
namespace {

using exec::StatusCode;

constexpr const char* kBuiltinPla = R"(.i 4
.o 2
.type fd
.p 8
0000 1-
0011 11
01-- -1
1000 --
1011 1-
110- -0
1111 1-
1010 -1
.e
)";

IncompleteSpec builtin_spec() {
  return parse_pla_string(kBuiltinPla, "builtin");
}

IncompleteSpec random_spec(unsigned n, unsigned outputs, double dc_prob,
                           Rng& rng) {
  IncompleteSpec spec("random", n, outputs);
  for (auto& f : spec.outputs())
    for (std::uint32_t m = 0; m < f.size(); ++m) {
      if (rng.flip(dc_prob))
        f.set_phase(m, Phase::kDc);
      else
        f.set_phase(m, rng.flip(0.5) ? Phase::kOne : Phase::kZero);
    }
  return spec;
}

/// Replaces every "total_ms"/"wall_ms" value with 0 so report documents
/// compare byte-for-byte across runs.
std::string strip_timings(std::string json) {
  for (const std::string key : {"\"total_ms\": ", "\"wall_ms\": "}) {
    std::size_t at = 0;
    while ((at = json.find(key, at)) != std::string::npos) {
      const std::size_t begin = at + key.size();
      std::size_t end = begin;
      while (end < json.size() && json[end] != ',' && json[end] != '}' &&
             json[end] != '\n')
        ++end;
      json.replace(begin, end - begin, "0");
      at = begin;
    }
  }
  return json;
}

/// Parses a spec that is expected to be valid.
flow::Pipeline parse_ok(const std::string& spec) {
  exec::Result<flow::Pipeline> pipeline = flow::parse_pipeline(spec);
  EXPECT_TRUE(pipeline.ok()) << spec << ": " << pipeline.status().to_string();
  return std::move(*pipeline);
}

// --- spec parser ----------------------------------------------------------

TEST(PipelineSpec, RoundTripsCanonicalForm) {
  const char* specs[] = {
      "assign:ranking(0.5) | espresso | factor | aig | map:power",
      "assign:conventional | espresso | extract | map:delay | analyze",
      "assign:lcf(0.55,balanced) | espresso | factor | aig | resyn | balance "
      "| map:power | analyze | error_rate",
      "assign:ranking_inc(0.25) | espresso(0) | factor | aig | map:delay",
      "assign:zero | covers:minterm | factor | aig | map:power",
      "assign:all | espresso | extract(16) | map:power",
  };
  for (const char* spec : specs) {
    flow::Pipeline pipeline = parse_ok(spec);
    EXPECT_EQ(pipeline.to_string(), spec);
    // to_string() re-parses to the same canonical form (full round trip).
    EXPECT_EQ(parse_ok(pipeline.to_string()).to_string(), spec);
  }
}

TEST(PipelineSpec, ToleratesFlexibleWhitespaceAndDefaults) {
  EXPECT_EQ(parse_ok("assign:ranking(0.5)|espresso|factor|aig|map:power")
                .to_string(),
            "assign:ranking(0.5) | espresso | factor | aig | map:power");
  EXPECT_EQ(parse_ok("  espresso  ").to_string(), "espresso");
  // Defaulted arguments render without parentheses.
  EXPECT_EQ(parse_ok("assign:ranking").to_string(), "assign:ranking(0.5)");
  EXPECT_EQ(parse_ok("assign:lcf").to_string(), "assign:lcf(0.55)");
  EXPECT_EQ(parse_ok("extract(32)").to_string(), "extract");
}

TEST(PipelineSpec, ErrorsCarryByteOffsets) {
  const struct {
    const char* spec;
    const char* fragment;  ///< expected substring of the error message
  } cases[] = {
      {"", "empty pipeline"},
      {"   ", "empty pipeline"},
      {"espresso | nosuchpass", "unknown pass 'nosuchpass' at offset 11"},
      {"espresso |", "trailing '|'"},
      {"| espresso", "expected a pass name, got '|' at offset 0"},
      {"assign:ranking(0.5", "unclosed '(' at offset 14"},
      {"assign:ranking(0.5( | espresso", "unclosed '('"},
      {"assign:ranking()", "empty argument"},
      {"assign:ranking(a)", "not a number"},
      {"assign:ranking(1.5)", "fraction must be in [0, 1]"},
      {"assign:lcf(0)", "threshold must be in (0, 1)"},
      {"assign:lcf(1)", "threshold must be in (0, 1)"},
      {"assign:lcf(0.5,wat)", "unknown flag 'wat'"},
      {"espresso(2,3)", "at most 1 argument"},
      {"factor(3)", "at most 0 arguments"},
      {"espresso(-1)", "not an iteration count"},
      {"espresso ; factor", "expected '|' or end of spec"},
  };
  for (const auto& c : cases) {
    exec::Result<flow::Pipeline> result = flow::parse_pipeline(c.spec);
    ASSERT_FALSE(result.ok()) << c.spec;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << c.spec;
    EXPECT_NE(result.status().message().find(c.fragment), std::string::npos)
        << c.spec << " -> " << result.status().message();
  }
}

// --- byte-compatibility of run_flow report JSON ---------------------------
//
// The goldens below were captured from the pre-pass-manager run_flow (the
// monolithic implementation this PR replaced), with wall-clock values
// normalized to 0 by strip_timings. run_flow on the pass manager must
// reproduce them byte for byte.

constexpr const char* kGoldenBuiltinRankingPower = R"({
  "schema": "rdc.flow.report.v1",
  "total_ms": 0,
  "phases": [
    {
      "name": "dc_assign",
      "wall_ms": 0
    },
    {
      "name": "espresso",
      "wall_ms": 0
    },
    {
      "name": "factor_aig",
      "wall_ms": 0
    },
    {
      "name": "map",
      "wall_ms": 0
    },
    {
      "name": "analyze",
      "wall_ms": 0
    },
    {
      "name": "error_rate",
      "wall_ms": 0
    }
  ],
  "metrics": {
    "aig_ands": 8,
    "name": "builtin",
    "policy": "ranking_fraction",
    "inputs": 4,
    "outputs": 2,
    "dc_before": 12,
    "dc_assigned": 5,
    "dc_assigned_on": 2,
    "gates": 7,
    "area": 9.67,
    "delay_ps": 69.03999999999999,
    "power_uw": 7.001043749999999,
    "error_rate": 0.3046875,
    "status": "OK",
    "degradation_level": 0,
    "degradation": "none"
  }
})";

constexpr const char* kGoldenRandomLcfDelayResyn = R"({
  "schema": "rdc.flow.report.v1",
  "total_ms": 0,
  "phases": [
    {
      "name": "dc_assign",
      "wall_ms": 0
    },
    {
      "name": "espresso",
      "wall_ms": 0
    },
    {
      "name": "factor_aig",
      "wall_ms": 0
    },
    {
      "name": "map",
      "wall_ms": 0
    },
    {
      "name": "analyze",
      "wall_ms": 0
    },
    {
      "name": "error_rate",
      "wall_ms": 0
    }
  ],
  "metrics": {
    "aig_ands": 34,
    "name": "random",
    "policy": "lcf_threshold",
    "inputs": 6,
    "outputs": 2,
    "dc_before": 64,
    "dc_assigned": 40,
    "dc_assigned_on": 15,
    "gates": 27,
    "area": 38.66,
    "delay_ps": 92.63,
    "power_uw": 23.52719882812499,
    "error_rate": 0.18489583333333331,
    "status": "OK",
    "degradation_level": 0,
    "degradation": "none"
  }
})";

constexpr const char* kGoldenRandomAllExtract = R"({
  "schema": "rdc.flow.report.v1",
  "total_ms": 0,
  "phases": [
    {
      "name": "dc_assign",
      "wall_ms": 0
    },
    {
      "name": "espresso",
      "wall_ms": 0
    },
    {
      "name": "factor_aig",
      "wall_ms": 0
    },
    {
      "name": "map",
      "wall_ms": 0
    },
    {
      "name": "analyze",
      "wall_ms": 0
    },
    {
      "name": "error_rate",
      "wall_ms": 0
    }
  ],
  "metrics": {
    "aig_ands": 52,
    "name": "random",
    "policy": "all_reliability",
    "inputs": 6,
    "outputs": 3,
    "dc_before": 112,
    "dc_assigned": 83,
    "dc_assigned_on": 28,
    "gates": 36,
    "area": 54.02000000000001,
    "delay_ps": 112.8,
    "power_uw": 34.3290822265625,
    "error_rate": 0.14756944444444442,
    "status": "OK",
    "degradation_level": 0,
    "degradation": "none"
  }
})";

constexpr const char* kGoldenBuiltinConventional = R"({
  "schema": "rdc.flow.report.v1",
  "total_ms": 0,
  "phases": [
    {
      "name": "dc_assign",
      "wall_ms": 0
    },
    {
      "name": "espresso",
      "wall_ms": 0
    },
    {
      "name": "factor_aig",
      "wall_ms": 0
    },
    {
      "name": "map",
      "wall_ms": 0
    },
    {
      "name": "analyze",
      "wall_ms": 0
    },
    {
      "name": "error_rate",
      "wall_ms": 0
    }
  ],
  "metrics": {
    "aig_ands": 8,
    "name": "builtin",
    "policy": "conventional",
    "inputs": 4,
    "outputs": 2,
    "dc_before": 0,
    "dc_assigned": 0,
    "dc_assigned_on": 0,
    "gates": 8,
    "area": 11.34,
    "delay_ps": 63.2,
    "power_uw": 7.194259374999999,
    "error_rate": 0.3125,
    "status": "OK",
    "degradation_level": 0,
    "degradation": "none"
  }
})";

TEST(PipelineGolden, RunFlowReportJsonIsByteIdenticalToPreRefactorFlow) {
  {
    FlowOptions options;
    options.ranking_fraction = 0.5;
    const FlowResult r =
        run_flow(builtin_spec(), DcPolicy::kRankingFraction, options);
    EXPECT_EQ(strip_timings(r.report.to_json()), kGoldenBuiltinRankingPower);
  }
  {
    Rng rng(197);
    const IncompleteSpec spec = random_spec(6, 2, 0.5, rng);
    FlowOptions options;
    options.objective = OptimizeFor::kDelay;
    options.lcf_threshold = 0.55;
    options.resyn_recipe = true;
    const FlowResult r = run_flow(spec, DcPolicy::kLcfThreshold, options);
    EXPECT_EQ(strip_timings(r.report.to_json()), kGoldenRandomLcfDelayResyn);
  }
  {
    Rng rng(197);
    const IncompleteSpec spec = random_spec(6, 3, 0.6, rng);
    FlowOptions options;
    options.use_extraction = true;
    const FlowResult r = run_flow(spec, DcPolicy::kAllReliability, options);
    EXPECT_EQ(strip_timings(r.report.to_json()), kGoldenRandomAllExtract);
  }
  {
    const FlowResult r = run_flow(builtin_spec(), DcPolicy::kConventional);
    EXPECT_EQ(strip_timings(r.report.to_json()), kGoldenBuiltinConventional);
  }
}

// --- run_flow vs an equivalent hand-parsed pipeline ----------------------

TEST(PipelineEquivalence, CanonicalSpecMatchesRunFlow) {
  Rng rng(41);
  const IncompleteSpec specs[] = {builtin_spec(), random_spec(6, 2, 0.4, rng)};
  const DcPolicy policies[] = {
      DcPolicy::kConventional, DcPolicy::kRankingFraction,
      DcPolicy::kRankingIncremental, DcPolicy::kLcfThreshold,
      DcPolicy::kAllReliability};
  for (const IncompleteSpec& spec : specs) {
    for (const DcPolicy policy : policies) {
      FlowOptions options;
      options.ranking_fraction = 0.75;
      options.lcf_threshold = 0.6;
      const FlowResult flow_result = run_flow(spec, policy, options);
      ASSERT_TRUE(flow_result.status.ok());

      flow::Pipeline pipeline =
          parse_ok(flow::canonical_flow_spec(policy, options));
      flow::Design design(spec, options);
      ASSERT_TRUE(pipeline.run(design).ok());

      EXPECT_EQ(design.stats.gates, flow_result.stats.gates);
      EXPECT_EQ(design.stats.area, flow_result.stats.area);
      EXPECT_EQ(design.stats.delay_ps, flow_result.stats.delay_ps);
      EXPECT_EQ(design.stats.power_uw, flow_result.stats.power_uw);
      EXPECT_EQ(design.error_rate, flow_result.error_rate);
      EXPECT_EQ(design.assignment.assigned, flow_result.assignment.assigned);
      EXPECT_EQ(design.working(), flow_result.implementation);
      // Same phase rows, in the same order.
      ASSERT_EQ(design.report.phases.size(),
                flow_result.report.phases.size());
      for (std::size_t i = 0; i < design.report.phases.size(); ++i)
        EXPECT_STREQ(design.report.phases[i].name,
                     flow_result.report.phases[i].name);
    }
  }
}

TEST(PipelineEquivalence, SynthesizeMatchesLowerHalfSpec) {
  IncompleteSpec spec = builtin_spec();
  conventional_assign(spec);
  const Netlist via_api = synthesize(spec, OptimizeFor::kPower);

  flow::Design design(spec);
  ASSERT_TRUE(
      parse_ok("espresso | factor | aig | map:power").run(design).ok());
  EXPECT_EQ(via_api.gates().size(), design.netlist().gates().size());
  EXPECT_EQ(via_api.outputs(), design.netlist().outputs());
}

// --- artifact invalidation ------------------------------------------------

TEST(PipelineArtifacts, UpstreamRerunInvalidatesDownstream) {
  const IncompleteSpec spec = builtin_spec();
  flow::Design design(spec);
  ASSERT_TRUE(parse_ok("assign:ranking(0.5) | espresso | factor | aig | "
                       "map:power | analyze | error_rate")
                  .run(design)
                  .ok());
  for (const flow::Artifact a :
       {flow::Artifact::kAssigned, flow::Artifact::kCovers,
        flow::Artifact::kFactors, flow::Artifact::kAig,
        flow::Artifact::kNetlist, flow::Artifact::kStats,
        flow::Artifact::kErrorRate})
    EXPECT_TRUE(design.has(a)) << flow::artifact_name(a);
  const NetlistStats first = design.stats;

  // Re-running the assignment invalidates everything downstream…
  ASSERT_TRUE(parse_ok("assign:ranking(0.5)").run(design).ok());
  EXPECT_TRUE(design.has(flow::Artifact::kAssigned));
  for (const flow::Artifact a :
       {flow::Artifact::kCovers, flow::Artifact::kFactors,
        flow::Artifact::kAig, flow::Artifact::kNetlist,
        flow::Artifact::kStats, flow::Artifact::kErrorRate})
    EXPECT_FALSE(design.has(a)) << flow::artifact_name(a);

  // …and re-running the downstream passes rebuilds the same result (the
  // flow is deterministic for a fixed assignment).
  ASSERT_TRUE(parse_ok("espresso | factor | aig | map:power | analyze")
                  .run(design)
                  .ok());
  EXPECT_EQ(design.stats.gates, first.gates);
  EXPECT_EQ(design.stats.area, first.area);
}

TEST(PipelineArtifacts, MissingArtifactIsInvalidArgument) {
  const IncompleteSpec spec = builtin_spec();
  {
    // factor needs covers; a fresh Design has none.
    flow::Design design(spec);
    const exec::Status status = parse_ok("factor").run(design);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("covers"), std::string::npos)
        << status.to_string();
    EXPECT_NE(status.to_string().find("factor"), std::string::npos);
  }
  {
    // aig needs factor trees, not just covers.
    flow::Design design(spec);
    const exec::Status status = parse_ok("espresso | aig").run(design);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("factors"), std::string::npos);
  }
}

// --- harness-owned spans and budget checkpoints ---------------------------

TEST(PipelineHarness, EmitsOnePerPassSpan) {
  using obs::TraceMode;
  obs::set_trace_mode(TraceMode::kCapture);
  obs::drain_spans();

  flow::Design design(builtin_spec());
  ASSERT_TRUE(parse_ok("assign:ranking(0.5) | espresso | factor | aig | "
                       "map:power")
                  .run(design)
                  .ok());
  const std::vector<obs::SpanRecord> spans = obs::drain_spans();
  obs::set_trace_mode(TraceMode::kOff);

  // The harness opens exactly one span per pass, named after the pass.
  // Pass bodies open none themselves (library kernels below them, e.g.
  // espresso.run, keep their own).
  for (const char* name :
       {"assign:ranking", "espresso", "factor", "aig", "map:power"}) {
    std::size_t hits = 0;
    for (const obs::SpanRecord& span : spans)
      if (std::string_view(span.name) == name) ++hits;
    EXPECT_EQ(hits, 1u) << name;
  }
}

TEST(PipelineHarness, ChecksBudgetAtEveryPassBoundary) {
  // A budget cancelled before the run: the harness's boundary checkpoint
  // must stop the pipeline before the FIRST pass executes — no phases, no
  // artifacts beyond the initial spec.
  exec::ExecBudget budget;
  budget.request_cancel();
  exec::BudgetScope scope(&budget);

  flow::Design design(builtin_spec());
  const exec::Status status =
      parse_ok("assign:ranking(0.5) | espresso | factor").run(design);
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_NE(status.to_string().find("pipeline"), std::string::npos);
  EXPECT_TRUE(design.report.phases.empty());
  EXPECT_FALSE(design.has(flow::Artifact::kCovers));
}

TEST(PipelineHarness, PassBoundaryFaultDescendsLadderToPartial) {
  // "pipeline.pass" arms the harness's own fault point: every rung of
  // run_flow's ladder fails at its first pass boundary, so the ladder
  // descends all the way to a kPartial result — and run_flow still does
  // not throw.
  FaultSpecGuard guard("pipeline.pass:1");
  const FlowResult result =
      run_flow(builtin_spec(), DcPolicy::kRankingFraction);
  EXPECT_EQ(result.degradation, DegradationLevel::kPartial);
  EXPECT_EQ(result.status.code(), StatusCode::kFaultInjected);
  std::string error;
  const auto parsed = obs::parse_json(result.report.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->find("metrics")->find("degradation")->string, "partial");
}

TEST(PipelineHarness, ExactRungFaultStillDegradesToHeuristic) {
  // The pre-refactor ladder semantics survive the rewrite: a fault in the
  // exact rung's entry degrades to kHeuristic, exactly as before.
  FaultSpecGuard guard("flow.exact:1");
  const FlowResult result =
      run_flow(builtin_spec(), DcPolicy::kRankingFraction);
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.degradation, DegradationLevel::kHeuristic);
  EXPECT_GT(result.stats.gates, 0u);
}

// --- FlowOptions validation -----------------------------------------------

TEST(FlowValidation, OutOfRangeKnobsAreInvalidArgument) {
  const IncompleteSpec spec = builtin_spec();
  const struct {
    DcPolicy policy;
    double fraction;
    double threshold;
  } bad[] = {
      {DcPolicy::kRankingFraction, -0.1, 0.55},
      {DcPolicy::kRankingFraction, 1.5, 0.55},
      {DcPolicy::kRankingIncremental, 2.0, 0.55},
      {DcPolicy::kLcfThreshold, 0.5, 0.0},
      {DcPolicy::kLcfThreshold, 0.5, 1.0},
      {DcPolicy::kLcfThreshold, 0.5, -3.0},
  };
  for (const auto& c : bad) {
    FlowOptions options;
    options.ranking_fraction = c.fraction;
    options.lcf_threshold = c.threshold;
    const FlowResult result = run_flow(spec, c.policy, options);
    EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(result.degradation, DegradationLevel::kPartial);
    EXPECT_EQ(result.stats.gates, 0u);
  }
  // NaN is rejected too (the comparisons are written to catch it).
  FlowOptions nan_options;
  nan_options.ranking_fraction = std::nan("");
  EXPECT_EQ(run_flow(spec, DcPolicy::kRankingFraction, nan_options)
                .status.code(),
            StatusCode::kInvalidArgument);
}

TEST(FlowValidation, PoliciesIgnoreUnrelatedKnobs) {
  // A garbage lcf_threshold must not fail policies that never read it —
  // validation is per policy.
  FlowOptions options;
  options.lcf_threshold = 99.0;
  options.ranking_fraction = -1.0;
  const FlowResult result =
      run_flow(builtin_spec(), DcPolicy::kConventional, options);
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.degradation, DegradationLevel::kNone);
  // Boundary values are inclusive for the ranking fraction.
  for (const double fraction : {0.0, 1.0}) {
    FlowOptions edge;
    edge.ranking_fraction = fraction;
    EXPECT_TRUE(
        run_flow(builtin_spec(), DcPolicy::kRankingFraction, edge).status.ok())
        << fraction;
  }
}

// --- batch driver ---------------------------------------------------------

/// Runs `pipeline` over `specs` on the batch engine and parses its report;
/// the batch itself must not fail.
obs::JsonValue run_batch(const std::string& pipeline,
                         const std::vector<IncompleteSpec>& specs,
                         const flow::SupervisedBatchOptions& options,
                         std::size_t* failures = nullptr) {
  auto batch = flow::run_pipeline_batch_supervised(pipeline, specs, options);
  EXPECT_TRUE(batch.ok()) << batch.status().to_string();
  if (!batch.ok()) return {};
  if (failures != nullptr) *failures = batch->failures;
  std::string error;
  auto parsed = obs::parse_json(batch->report.to_json(), &error);
  EXPECT_TRUE(parsed.has_value()) << error;
  return parsed ? std::move(*parsed) : obs::JsonValue{};
}

TEST(PipelineBatch, RunsAllCircuitsAndAggregatesReport) {
  Rng rng(7);
  std::vector<IncompleteSpec> specs;
  specs.push_back(builtin_spec());
  specs.push_back(random_spec(5, 2, 0.4, rng));
  specs.push_back(random_spec(6, 1, 0.6, rng));

  const std::string spec_text =
      "assign:ranking(0.5) | espresso | factor | aig | map:power | analyze "
      "| error_rate";
  std::size_t failures = 1;
  const obs::JsonValue report =
      run_batch(spec_text, specs, flow::SupervisedBatchOptions{}, &failures);
  EXPECT_EQ(failures, 0u);

  // The aggregated document has one row per circuit, in input order, and
  // carries the canonical pipeline spec in its metadata.
  const flow::Pipeline pipeline = parse_ok(spec_text);
  ASSERT_NE(report.find("schema"), nullptr);
  EXPECT_EQ(report.find("schema")->string, "rdc.bench.report.v1");
  EXPECT_EQ(report.find("meta")->find("pipeline")->string,
            pipeline.to_string());
  const obs::JsonValue* rows = report.find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array.size(), specs.size());

  // Each row matches a standalone run of the same pipeline.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const obs::JsonValue& row = rows->array[i];
    EXPECT_EQ(row.find("name")->string, specs[i].name());
    EXPECT_EQ(row.find("status")->string, "OK");
    flow::Design design(specs[i]);
    ASSERT_TRUE(pipeline.run(design).ok());
    EXPECT_EQ(row.find("gates")->number,
              static_cast<double>(design.stats.gates));
    EXPECT_EQ(row.find("error_rate")->number, design.error_rate);
  }
}

TEST(PipelineBatch, IsolatesPerCircuitFailures) {
  // Per-circuit budgets: each circuit gets its own checkpoint allowance.
  // Checkpoint counts are algorithmic (thread-independent), so the tiny
  // circuits finish within the cap while the dense 8-input one trips it —
  // deterministically, and without poisoning its neighbors' rows.
  Rng rng(11);
  std::vector<IncompleteSpec> specs;
  specs.push_back(builtin_spec());
  specs.push_back(random_spec(8, 3, 0.5, rng));  // the expensive one
  specs.push_back(builtin_spec());

  flow::SupervisedBatchOptions options;
  // Measured: the builtin circuit needs ~33 checkpoints, the dense
  // 8-input one ~775 (thread-count independent) — 200 splits them with a
  // wide margin on both sides.
  options.batch.budget.max_checkpoints = 200;
  std::size_t failures = 0;
  const obs::JsonValue report = run_batch(
      "assign:ranking(0.5) | espresso | factor | aig | map:power | analyze",
      specs, options, &failures);

  EXPECT_EQ(failures, 1u);
  const obs::JsonValue* rows = report.find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array.size(), specs.size());
  EXPECT_EQ(rows->array[0].find("status")->string, "OK");
  EXPECT_EQ(rows->array[2].find("status")->string, "OK");
  // The failing circuit's row carries the error; its neighbors report QoR.
  EXPECT_EQ(rows->array[1].find("status")->string, "RESOURCE_EXHAUSTED");
  EXPECT_NE(rows->array[1].find("error"), nullptr);
  EXPECT_EQ(rows->array[0].find("error"), nullptr);
  EXPECT_NE(rows->array[0].find("gates"), nullptr);
}

TEST(PipelineBatch, RetriesShareTheSupervisorsTransientPredicate) {
  std::vector<IncompleteSpec> specs;
  specs.push_back(builtin_spec());
  const std::string pipeline = "assign:zero | espresso";

  // An armed espresso fault site throws kFaultInjected on the first hit,
  // and every attempt runs in a fresh worker whose hit count starts from
  // zero, so each attempt fails transiently: the batch must burn all
  // attempts (outcome_is_transient says kFaultInjected retries) and stamp
  // the count into the row.
  {
    FaultSpecGuard guard("espresso:1");
    flow::SupervisedBatchOptions options;
    options.retry.max_attempts = 3;
    options.retry.base_backoff_ms = 0.01;
    std::size_t failures = 0;
    const obs::JsonValue report =
        run_batch(pipeline, specs, options, &failures);
    EXPECT_EQ(failures, 1u);
    const obs::JsonValue* rows = report.find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_EQ(rows->array.size(), 1u);
    EXPECT_EQ(rows->array[0].find("status")->string, "FAULT_INJECTED");
    EXPECT_EQ(rows->array[0].find("attempts")->number, 3.0);
  }

  // A clean run with retries enabled succeeds on attempt 1 — the stamp
  // records the truth, not the budget.
  {
    flow::SupervisedBatchOptions options;
    options.retry.max_attempts = 3;
    std::size_t failures = 1;
    const obs::JsonValue report =
        run_batch(pipeline, specs, options, &failures);
    EXPECT_EQ(failures, 0u);
    const obs::JsonValue* rows = report.find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_EQ(rows->array.size(), 1u);
    EXPECT_EQ(rows->array[0].find("attempts")->number, 1.0);
  }
}

// --- sampled error-rate pass ----------------------------------------------

TEST(PipelineSampled, ParsesValidatesAndRoundTrips) {
  // Canonical form: the default budget (1e6 draws) renders bare; explicit
  // non-default counts round-trip; scientific notation is accepted.
  EXPECT_EQ(parse_ok("error_rate:sampled").to_string(), "error_rate:sampled");
  EXPECT_EQ(parse_ok("error_rate:sampled(1000000)").to_string(),
            "error_rate:sampled");
  EXPECT_EQ(parse_ok("error_rate:sampled(1e6)").to_string(),
            "error_rate:sampled");
  EXPECT_EQ(parse_ok("error_rate:sampled(5000)").to_string(),
            "error_rate:sampled(5000)");
  EXPECT_EQ(parse_ok(parse_ok("error_rate:sampled(5000)").to_string())
                .to_string(),
            "error_rate:sampled(5000)");

  const struct {
    const char* spec;
    const char* fragment;
  } bad[] = {
      {"error_rate:sampled(0)", "sample count in [1, 1e9]"},
      {"error_rate:sampled(-5)", "sample count in [1, 1e9]"},
      {"error_rate:sampled(2e9)", "sample count in [1, 1e9]"},
      {"error_rate:sampled(1.5)", "sample count in [1, 1e9]"},
      {"error_rate:sampled(x)", "sample count in [1, 1e9]"},
      {"error_rate:sampled(1,2)", "at most 1 argument"},
  };
  for (const auto& c : bad) {
    exec::Result<flow::Pipeline> result = flow::parse_pipeline(c.spec);
    ASSERT_FALSE(result.ok()) << c.spec;
    EXPECT_NE(result.status().message().find(c.fragment), std::string::npos)
        << c.spec << " -> " << result.status().message();
  }
}

TEST(PipelineSampled, StampsEstimatorMetricsIntoTheReport) {
  flow::Design design(builtin_spec());
  ASSERT_TRUE(parse_ok("assign:ranking(0.5) | espresso | factor | aig | "
                       "map:power | analyze | error_rate:sampled(20000)")
                  .run(design)
                  .ok());
  std::string error;
  const auto parsed = obs::parse_json(design.report.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const obs::JsonValue* metrics = parsed->find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->find("error_rate_estimator")->string, "sampled");
  ASSERT_NE(metrics->find("error_rate_ci_low"), nullptr);
  ASSERT_NE(metrics->find("error_rate_ci_high"), nullptr);
  const double rate = metrics->find("error_rate")->number;
  EXPECT_LE(metrics->find("error_rate_ci_low")->number, rate);
  EXPECT_GE(metrics->find("error_rate_ci_high")->number, rate);
  // Per-output draws: 2 outputs x 20000.
  EXPECT_EQ(metrics->find("error_rate_samples")->number, 40000.0);
}

TEST(PipelineSampled, ExactPassStampsNoEstimatorKeys) {
  // The exact estimator keeps the pre-existing report schema: no
  // provenance keys (this is what protects the byte-for-byte goldens).
  flow::Design design(builtin_spec());
  ASSERT_TRUE(parse_ok("assign:ranking(0.5) | espresso | factor | aig | "
                       "map:power | analyze | error_rate")
                  .run(design)
                  .ok());
  std::string error;
  const auto parsed = obs::parse_json(design.report.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const obs::JsonValue* metrics = parsed->find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_NE(metrics->find("error_rate"), nullptr);
  EXPECT_EQ(metrics->find("error_rate_estimator"), nullptr);
  EXPECT_EQ(metrics->find("error_rate_ci_low"), nullptr);
  EXPECT_EQ(metrics->find("error_rate_samples"), nullptr);
}

TEST(PipelineSampled, SampledReportIsByteDeterministicPerSeed) {
  const auto run_once = [](std::uint64_t seed) {
    FlowOptions options;
    options.sample_seed = seed;
    flow::Design design(builtin_spec(), options);
    EXPECT_TRUE(parse_ok("assign:ranking(0.5) | espresso | factor | aig | "
                         "map:power | analyze | error_rate:sampled(5000)")
                    .run(design)
                    .ok());
    return strip_timings(design.report.to_json());
  };
  // Same seed -> byte-identical report document.
  EXPECT_EQ(run_once(42), run_once(42));
  // The default seed is deterministic too.
  FlowOptions defaults;
  EXPECT_EQ(run_once(defaults.sample_seed), run_once(defaults.sample_seed));
}

TEST(PipelineSampled, BudgetTripInsideSampledPassIsTyped) {
  // The sampling loops poll exec::checkpoint() every 64th draw, so an
  // iteration cap trips *inside* error_rate:sampled — mid-pass, not at the
  // next boundary — and surfaces as a typed status naming the pass. 200
  // checkpoints cover the two cheap upstream passes with a wide margin
  // while 2 outputs x 50000 draws (~1500 polls) blow through the rest.
  exec::BudgetLimits limits;
  limits.max_checkpoints = 200;
  exec::ExecBudget budget(limits);
  exec::BudgetScope scope(&budget);
  flow::Design design(builtin_spec());
  const exec::Status status =
      parse_ok("assign:zero | covers:minterm | "
               "error_rate:sampled(50000)")
          .run(design);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.to_string().find("error_rate:sampled"), std::string::npos)
      << status.to_string();
  // Upstream artifacts survive; the estimate was never produced.
  EXPECT_TRUE(design.has(flow::Artifact::kCovers));
  EXPECT_FALSE(design.has(flow::Artifact::kErrorRate));
  EXPECT_FALSE(design.estimator.sampled);
}

TEST(PipelineSampled, BatchDegradesSampledBudgetTripsToErrorRows) {
  // Per-circuit budgets: every circuit trips inside its own sampled pass
  // and degrades to an error row; the batch itself never fails.
  Rng rng(17);
  std::vector<IncompleteSpec> specs;
  specs.push_back(builtin_spec());
  specs.push_back(random_spec(5, 2, 0.4, rng));

  flow::SupervisedBatchOptions options;
  options.batch.budget.max_checkpoints = 200;
  std::size_t failures = 0;
  const obs::JsonValue report = run_batch(
      "assign:zero | covers:minterm | error_rate:sampled(50000)", specs,
      options, &failures);
  EXPECT_EQ(failures, specs.size());
  const obs::JsonValue* rows = report.find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array.size(), specs.size());
  for (const obs::JsonValue& row : rows->array) {
    EXPECT_EQ(row.find("status")->string, "RESOURCE_EXHAUSTED");
    ASSERT_NE(row.find("error"), nullptr);
    EXPECT_NE(row.find("error")->string.find("error_rate:sampled"),
              std::string::npos);
  }
}

TEST(PipelineSampled, PassBoundaryFaultFailsSampledPassCleanly) {
  // RDC_FAULT=pipeline.pass:3 arms the third boundary hit: the two cheap
  // passes run, the sampled pass faults before it starts, and the failure
  // is a typed kFaultInjected naming it — no throw escapes the harness.
  FaultSpecGuard guard("pipeline.pass:3");
  flow::Design design(builtin_spec());
  const exec::Status status =
      parse_ok("assign:zero | covers:minterm | "
               "error_rate:sampled(2000)")
          .run(design);
  EXPECT_EQ(status.code(), StatusCode::kFaultInjected);
  EXPECT_NE(status.to_string().find("error_rate:sampled"), std::string::npos)
      << status.to_string();
  EXPECT_TRUE(design.has(flow::Artifact::kCovers));
  EXPECT_FALSE(design.has(flow::Artifact::kErrorRate));
}

TEST(PipelineSampled, RepeatedExactErrorRateReconcilesIncrementally) {
  // Re-running assign + downstream on one Design measures several working
  // implementations in turn; each repeated error_rate pass must equal a
  // fresh Design's rate.
  const IncompleteSpec spec = builtin_spec();
  flow::Design shared(spec);
  for (const char* fraction : {"0.25", "0.75", "0.25", "1"}) {
    const std::string pipeline = std::string("assign:ranking(") + fraction +
                                 ") | espresso | factor | aig | map:power | "
                                 "analyze | error_rate";
    ASSERT_TRUE(parse_ok(pipeline).run(shared).ok());
    flow::Design fresh(spec);
    ASSERT_TRUE(parse_ok(pipeline).run(fresh).ok());
    EXPECT_EQ(shared.error_rate, fresh.error_rate) << fraction;
  }
}

}  // namespace
}  // namespace rdc
