// Tests for the pass-manager layer (flow/pass.hpp, flow/pipeline.hpp):
// spec-parser round trips and error positions, byte-compatibility of
// run_flow's report JSON with the pre-pass-manager flow, artifact
// invalidation on the Design, harness-owned spans/budget checkpoints,
// degradation-ladder descent under pass-boundary faults, out-of-range
// knobs in run_flow's spec text, the batch driver, and one flow through
// every front door.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/format.hpp"
#include "common/rng.hpp"
#include "espresso/espresso.hpp"
#include "exec/budget.hpp"
#include "exec/fault.hpp"
#include "exec/shutdown.hpp"
#include "fault_guard.hpp"
#include "flow/batch_supervisor.hpp"
#include "flow/pipeline.hpp"
#include "flow/synthesis_flow.hpp"
#include "flow_specs.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "pla/pla_io.hpp"
#include "report_json.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

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
    const FlowResult r =
        run_flow(builtin_spec(), test::paper_flow("assign:ranking(0.5)"));
    EXPECT_EQ(test::strip_timings(r.report.to_json()),
              kGoldenBuiltinRankingPower);
  }
  {
    Rng rng(197);
    const IncompleteSpec spec = random_spec(6, 2, 0.5, rng);
    const FlowResult r =
        run_flow(spec,
                 "assign:lcf(0.55) | espresso | factor | aig | resyn | "
                 "balance | map:delay | analyze | error_rate");
    EXPECT_EQ(test::strip_timings(r.report.to_json()),
              kGoldenRandomLcfDelayResyn);
  }
  {
    Rng rng(197);
    const IncompleteSpec spec = random_spec(6, 3, 0.6, rng);
    const FlowResult r = run_flow(
        spec, "assign:all | espresso | extract | map:power | analyze | "
              "error_rate");
    EXPECT_EQ(test::strip_timings(r.report.to_json()),
              kGoldenRandomAllExtract);
  }
  {
    const FlowResult r =
        run_flow(builtin_spec(), test::paper_flow("assign:conventional"));
    EXPECT_EQ(test::strip_timings(r.report.to_json()),
              kGoldenBuiltinConventional);
  }
}

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

// --- one flow, four front doors ------------------------------------------

/// The metrics object of a parsed report (or a batch row itself) as key ->
/// JSON value text, numbers in their source spelling, so two reports
/// compare metric by metric, byte for byte.
std::map<std::string, std::string> metric_bytes(const obs::JsonValue& object) {
  std::map<std::string, std::string> out;
  for (const auto& [key, value] : object.object) {
    if (value.is_string())
      out[key] = "\"" + value.string + "\"";
    else if (value.is_bool())
      out[key] = value.boolean ? "true" : "false";
    else
      out[key] = value.string;
  }
  return out;
}

std::map<std::string, std::string> report_metrics(const std::string& json) {
  std::string error;
  const auto parsed = obs::parse_json(json, &error);
  EXPECT_TRUE(parsed.has_value()) << error;
  if (!parsed || parsed->find("metrics") == nullptr) return {};
  return metric_bytes(*parsed->find("metrics"));
}

/// `other` holds every metric of `pipeline` with the same bytes, and
/// beyond them exactly the keys in `added`.
void expect_same_metrics(const std::map<std::string, std::string>& pipeline,
                         const std::map<std::string, std::string>& other,
                         std::set<std::string> added,
                         const std::string& what) {
  for (const auto& [key, value] : pipeline) {
    const auto it = other.find(key);
    if (it == other.end()) {
      ADD_FAILURE() << what << " lacks metric " << key;
      continue;
    }
    EXPECT_EQ(it->second, value) << what << ": " << key;
    added.insert(key);
  }
  std::set<std::string> keys;
  for (const auto& [key, value] : other) keys.insert(key);
  EXPECT_EQ(keys, added) << what;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(PipelineEquivalence, CanonicalSpecMatchesRunFlow) {
  // Every canonical flow reaches the same result through each front door:
  // Pipeline::run on a Design, run_flow, a cold request to the daemon, and
  // a batch row. The daemon names every request's spec "job", so all four
  // doors run the same bytes under that name.
  std::vector<std::string> plas;
  for (const char* fixture : {"builtin", "decoder3", "parity4"})
    plas.push_back(read_file(std::string(RDC_FIXTURE_DIR) + "/" + fixture +
                             ".pla"));
  {
    Rng rng(41);
    std::ostringstream random_pla;
    write_pla(random_spec(6, 2, 0.4, rng), random_pla);
    plas.push_back(random_pla.str());
  }
  std::vector<IncompleteSpec> specs;
  for (const std::string& pla : plas)
    specs.push_back(parse_pla_string(pla, "job"));
  const std::string flows[] = {
      test::paper_flow("assign:conventional"),
      test::paper_flow("assign:ranking(0.75)"),
      test::paper_flow("assign:ranking_inc(0.75)"),
      test::paper_flow("assign:lcf(0.6)"),
      test::paper_flow("assign:all"),
  };

  // The batch engine forks its workers, so every batch runs before the
  // daemon starts its threads.
  std::vector<obs::JsonValue> batches;
  for (const std::string& canonical : flows)
    batches.push_back(
        run_batch(canonical, specs, flow::SupervisedBatchOptions{}));

  char dir_template[] = "/tmp/rdc_front_doors_XXXXXX";
  const std::string dir = mkdtemp(dir_template);
  exec::testing::reset_shutdown();
  serve::ServerOptions server_options;
  server_options.socket_path = dir + "/rdcsynd.sock";
  serve::Server server(server_options);
  ASSERT_TRUE(server.start().ok());
  serve::ClientOptions client;
  client.socket_path = server_options.socket_path;
  ASSERT_TRUE(serve::ping_server(client, 5000).ok());

  for (std::size_t p = 0; p < std::size(flows); ++p) {
    const std::string& canonical = flows[p];
    const obs::JsonValue* rows = batches[p].find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_EQ(rows->array.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::string what = canonical + " on input " + std::to_string(i);
      flow::Pipeline pipeline = parse_ok(canonical);
      flow::Design design(specs[i]);
      ASSERT_TRUE(pipeline.run(design).ok()) << what;
      const auto pipeline_metrics = report_metrics(design.report.to_json());
      ASSERT_FALSE(pipeline_metrics.empty()) << what;

      const FlowResult flow_result = run_flow(specs[i], canonical);
      ASSERT_TRUE(flow_result.status.ok()) << what;
      EXPECT_EQ(flow_result.degradation, DegradationLevel::kNone) << what;
      EXPECT_EQ(design.working(), flow_result.implementation) << what;
      // Same phase rows, in the same order.
      ASSERT_EQ(design.report.phases.size(),
                flow_result.report.phases.size());
      for (std::size_t k = 0; k < design.report.phases.size(); ++k)
        EXPECT_STREQ(design.report.phases[k].name,
                     flow_result.report.phases[k].name);
      expect_same_metrics(pipeline_metrics,
                          report_metrics(flow_result.report.to_json()),
                          {"status", "degradation_level", "degradation"},
                          "run_flow: " + what);

      serve::JobRequest request;
      request.spec_pla = plas[i];
      request.pipeline = canonical;
      request.no_cache = true;
      const serve::SubmitResult reply = serve::submit_job(client, request);
      ASSERT_TRUE(reply.status.ok()) << reply.status.to_string();
      EXPECT_FALSE(reply.cache_hit);
      expect_same_metrics(pipeline_metrics, report_metrics(reply.report_json),
                          {}, "serve: " + what);

      expect_same_metrics(pipeline_metrics, metric_bytes(rows->array[i]),
                          {"name", "status", "attempts"}, "batch: " + what);
    }
  }
  server.drain(0);
  rmdir(dir.c_str());
}

TEST(PipelineEquivalence, HeuristicRungIsTheCanonicalSpecAtEspressoZero) {
  // A fault at the exact rung's entry sends run_flow to its heuristic
  // rung, which must report exactly what Pipeline::run reports for the
  // text with `espresso(0)` in place of `espresso`, plus the ladder's
  // degradation stamps, whatever else the pipeline names.
  FaultSpecGuard guard("flow.exact:1");
  std::vector<IncompleteSpec> specs = {builtin_spec()};
  Rng rng(43);
  for (int i = 0; i < 3; ++i) specs.push_back(random_spec(8, 2, 0.4, rng));
  bool effort_shows = false;
  for (const std::string& canonical :
       {test::paper_flow("assign:conventional"),
        test::paper_flow("assign:ranking(0.75)"),
        test::paper_flow("assign:lcf(0.55)"),
        std::string("assign:ranking(0.75) | espresso | extract | map:power | "
                    "analyze | error_rate"),
        std::string("assign:lcf(0.55) | espresso | factor | aig | resyn | "
                    "map:power | analyze | error_rate"),
        "assign:all" + test::kDelayLowerHalf,
        std::string("assign:ranking(0.5)@stuckat | espresso | factor | aig | "
                    "map:power | analyze | error_rate@stuckat")}) {
    const std::string full_effort = " | espresso | ";
    const std::size_t at = canonical.find(full_effort);
    ASSERT_NE(at, std::string::npos) << canonical;
    std::string heuristic = canonical;
    heuristic.replace(at, full_effort.size(), " | espresso(0) | ");
    for (const IncompleteSpec& spec : specs) {
      const std::string what = heuristic + " on " + spec.name();
      flow::Design design(spec);
      ASSERT_TRUE(parse_ok(heuristic).run(design).ok()) << what;
      const auto pipeline_metrics = report_metrics(design.report.to_json());

      const FlowResult result = run_flow(spec, canonical);
      ASSERT_TRUE(result.status.ok()) << what;
      EXPECT_EQ(result.degradation, DegradationLevel::kHeuristic) << what;
      EXPECT_EQ(design.working(), result.implementation) << what;
      expect_same_metrics(pipeline_metrics,
                          report_metrics(result.report.to_json()),
                          {"status", "degradation_level", "degradation",
                           "degraded_reason"},
                          what);

      flow::Design exact(spec);
      ASSERT_TRUE(parse_ok(canonical).run(exact).ok()) << canonical;
      effort_shows |= report_metrics(exact.report.to_json()) !=
                      pipeline_metrics;
    }
  }
  // Some spec must minimize differently at the two efforts, or the
  // comparison could not tell the rungs apart.
  EXPECT_TRUE(effort_shows);
}

TEST(PipelineEquivalence, ConventionalRungKeepsThePipelinesMapper) {
  // "espresso:1" fails both minimizing rungs, so run_flow falls back to
  // rung 2, which maps with the pipeline's own mapper and rates errors
  // under its error-rate pass's model: it must report exactly what
  // Pipeline::run reports for the fallback text, plus the ladder's stamps
  // (the fallback's assign:zero records no assignment statistics).
  FaultSpecGuard guard("espresso:1");
  Rng rng(47);
  const IncompleteSpec spec = random_spec(7, 2, 0.4, rng);
  const struct {
    std::string pipeline;
    const char* fallback;
  } cases[] = {
      {"assign:lcf(0.55)" + test::kDelayLowerHalf,
       "assign:zero | covers:minterm | factor | aig | balance | map:delay | "
       "analyze | error_rate"},
      {test::paper_flow("assign:lcf(0.55)"),
       "assign:zero | covers:minterm | factor | aig | map:power | analyze | "
       "error_rate"},
      {"assign:ranking(0.5)@stuckat | espresso | factor | aig | resyn | "
       "map:power | analyze | error_rate@stuckat",
       "assign:zero | covers:minterm | factor | aig | map:power | analyze | "
       "error_rate@stuckat"},
  };
  std::vector<double> delays;
  for (const auto& c : cases) {
    flow::Design design(spec);
    ASSERT_TRUE(parse_ok(c.fallback).run(design).ok()) << c.fallback;
    const FlowResult result = run_flow(spec, c.pipeline);
    ASSERT_TRUE(result.status.ok()) << c.pipeline;
    EXPECT_EQ(result.degradation, DegradationLevel::kConventional)
        << c.pipeline;
    EXPECT_EQ(design.working(), result.implementation) << c.pipeline;
    expect_same_metrics(report_metrics(design.report.to_json()),
                        report_metrics(result.report.to_json()),
                        {"name", "policy", "inputs", "outputs", "status",
                         "degradation_level", "degradation",
                         "degraded_reason"},
                        c.pipeline);
    delays.push_back(result.stats.delay_ps);
  }
  // The delay mapper's fallback is faster than the power mapper's.
  EXPECT_LT(delays[0], delays[1]);
}

TEST(PipelineEquivalence, LowerHalfSpecsImplementAssignedSpec) {
  // The flow's lower half under either objective maps a fully assigned
  // spec to a netlist of exactly that function.
  IncompleteSpec spec = builtin_spec();
  conventional_assign(spec);
  for (const char* lower : {"espresso | factor | aig | map:power",
                            "espresso | factor | aig | balance | map:delay"}) {
    flow::Design design(spec);
    ASSERT_TRUE(parse_ok(lower).run(design).ok()) << lower;
    EXPECT_GT(design.netlist().gate_count(), 0u) << lower;
    for (unsigned o = 0; o < spec.num_outputs(); ++o)
      EXPECT_EQ(design.netlist().output_table(o), spec.output(o))
          << lower << " output " << o;
  }
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
      run_flow(builtin_spec(), test::paper_flow("assign:ranking(0.5)"));
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
      run_flow(builtin_spec(), test::paper_flow("assign:ranking(0.5)"));
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.degradation, DegradationLevel::kHeuristic);
  EXPECT_GT(result.stats.gates, 0u);
}

// --- knob validation in run_flow's spec text -----------------------------

TEST(FlowValidation, OutOfRangeKnobsAreInvalidArgument) {
  const IncompleteSpec spec = builtin_spec();
  for (const char* assign :
       {"assign:ranking(-0.1)", "assign:ranking(1.5)", "assign:ranking_inc(2)",
        "assign:lcf(0)", "assign:lcf(1)", "assign:lcf(-3)"}) {
    const FlowResult result = run_flow(spec, test::paper_flow(assign));
    EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument) << assign;
    EXPECT_EQ(result.degradation, DegradationLevel::kPartial) << assign;
    EXPECT_EQ(result.stats.gates, 0u) << assign;
    // Text that does not parse names no policy.
    const auto metrics = report_metrics(result.report.to_json());
    EXPECT_EQ(metrics.count("policy"), 0u) << assign;
    EXPECT_EQ(metrics.at("degradation"), "\"partial\"") << assign;
  }
  // NaN is rejected too (the comparisons are written to catch it).
  EXPECT_EQ(
      run_flow(spec, test::paper_flow("assign:ranking(" +
                                      format_double(std::nan("")) + ")"))
          .status.code(),
      StatusCode::kInvalidArgument);
}

TEST(FlowValidation, AssignPassRejectsAModelThatDoesNotFitTheSpec) {
  // A pipeline carries the model on the pass, which must reject a model
  // that does not fit the spec instead of assigning nothing. builtin.pla
  // has 4 inputs.
  const IncompleteSpec spec = builtin_spec();
  for (const char* step :
       {"assign:ranking(0.5)@bitflip(9)", "assign:ranking_inc(0.5)@bitflip(5)",
        "assign:lcf(0.55)@bitflip(9)", "assign:all@bitflip(9)",
        "assign:ranking(0.5)@bitflip_weighted(1,2)"}) {
    flow::Pipeline pipeline =
        parse_ok(std::string(step) + " | espresso | error_rate");
    flow::Design design(spec);
    const exec::Status status = pipeline.run(design);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << step;
    EXPECT_FALSE(design.has_assignment) << step;
  }
  // k = n fits.
  flow::Pipeline fits =
      parse_ok("assign:ranking(0.5)@bitflip(4) | espresso | error_rate");
  flow::Design design(spec);
  EXPECT_TRUE(fits.run(design).ok());
}

TEST(FlowValidation, ModelThatDoesNotFitFailsBeforeAnyPassRuns) {
  // The misfit model sits on the last pass; the passes before it must not
  // run, so the Design holds no covers.
  const IncompleteSpec spec = builtin_spec();
  flow::Pipeline pipeline = parse_ok(
      "espresso | factor | aig | map:power | analyze | "
      "error_rate@bitflip(9)");
  flow::Design design(spec);
  const exec::Status status = pipeline.run(design);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.to_string().find("error_rate"), std::string::npos)
      << status.to_string();
  EXPECT_NE(status.message().find("bitflip(9) needs at least 9 inputs"),
            std::string::npos)
      << status.to_string();
  EXPECT_FALSE(design.has(flow::Artifact::kCovers));
  EXPECT_TRUE(design.report.phases.empty());
}

TEST(FlowValidation, PoliciesIgnoreUnrelatedKnobs) {
  // In spec text each pass carries only its own knob: the conventional
  // assignment has none that could fail it.
  const FlowResult result =
      run_flow(builtin_spec(), test::paper_flow("assign:conventional"));
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.degradation, DegradationLevel::kNone);
  // Boundary values are inclusive for the ranking fraction.
  for (const char* assign : {"assign:ranking(0)", "assign:ranking(1)"})
    EXPECT_TRUE(
        run_flow(builtin_spec(), test::paper_flow(assign)).status.ok())
        << assign;
}

// --- batch driver ---------------------------------------------------------

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
  // Every sampled run draws from one fixed seed, so two runs of one
  // (spec, pipeline) give byte-identical report documents.
  const auto run_once = [] {
    flow::Design design(builtin_spec());
    EXPECT_TRUE(parse_ok("assign:ranking(0.5) | espresso | factor | aig | "
                         "map:power | analyze | error_rate:sampled(5000)")
                    .run(design)
                    .ok());
    return test::strip_timings(design.report.to_json());
  };
  EXPECT_EQ(run_once(), run_once());
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
