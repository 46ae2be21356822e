// Integration tests for the end-to-end synthesis flow.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "flow/pipeline.hpp"
#include "flow/synthesis_flow.hpp"
#include "flow_specs.hpp"
#include "netlist_tables.hpp"
#include "reliability/error_rate.hpp"

namespace rdc {
namespace {

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

/// The central correctness invariant: whatever the DC policy, the final
/// implementation must agree with the specification on every care minterm.
void expect_respects_care_set(const IncompleteSpec& impl,
                              const IncompleteSpec& spec) {
  ASSERT_EQ(impl.num_outputs(), spec.num_outputs());
  for (unsigned o = 0; o < spec.num_outputs(); ++o) {
    ASSERT_TRUE(impl.output(o).fully_specified());
    for (std::uint32_t m = 0; m < spec.output(o).size(); ++m) {
      if (!spec.output(o).is_care(m)) continue;
      EXPECT_EQ(impl.output(o).is_on(m), spec.output(o).is_on(m))
          << "output " << o << " minterm " << m;
    }
  }
}

TEST(Flow, ConventionalRespectsSpec) {
  Rng rng(179);
  const IncompleteSpec spec = random_spec(6, 3, 0.5, rng);
  const FlowResult result =
      run_flow(spec, test::paper_flow("assign:conventional"));
  expect_respects_care_set(result.implementation, spec);
  EXPECT_EQ(result.assignment.assigned, 0u);
  EXPECT_GT(result.stats.gates, 0u);
}

TEST(Flow, NetlistMatchesImplementation) {
  Rng rng(181);
  const IncompleteSpec spec = random_spec(5, 2, 0.4, rng);
  for (const char* assign : {"assign:conventional", "assign:ranking(0.5)",
                             "assign:lcf(0.55)", "assign:all"}) {
    const FlowResult result = run_flow(spec, test::paper_flow(assign));
    const std::vector<TernaryTruthTable> mapped =
        test::output_tables(result.netlist);
    for (unsigned o = 0; o < spec.num_outputs(); ++o)
      EXPECT_EQ(mapped[o], result.implementation.output(o))
          << assign << " output " << o;
  }
}

TEST(Flow, AllPoliciesRespectCareSet) {
  Rng rng(191);
  const IncompleteSpec spec = random_spec(6, 2, 0.6, rng);
  for (const std::string& assign : test::kAssignPasses) {
    const FlowResult result = run_flow(spec, test::paper_flow(assign));
    expect_respects_care_set(result.implementation, spec);
  }
}

TEST(Flow, FullReliabilityAssignmentLowersErrorRate) {
  // Statistically, complete reliability-driven assignment should not lose
  // to conventional assignment on error rate (it is optimal per DC).
  Rng rng(193);
  int wins = 0;
  const int trials = 8;
  for (int t = 0; t < trials; ++t) {
    const IncompleteSpec spec = random_spec(6, 2, 0.6, rng);
    const double conventional =
        run_flow(spec, test::paper_flow("assign:conventional")).error_rate;
    const double reliability =
        run_flow(spec, test::paper_flow("assign:all")).error_rate;
    if (reliability <= conventional + 1e-12) ++wins;
  }
  EXPECT_EQ(wins, trials);
}

TEST(Flow, ErrorRateWithinExactBounds) {
  Rng rng(197);
  const IncompleteSpec spec = random_spec(6, 2, 0.5, rng);
  const RateBounds bounds = exact_error_bounds(spec);
  for (const char* assign :
       {"assign:conventional", "assign:ranking(0.5)", "assign:all"}) {
    const FlowResult result = run_flow(spec, test::paper_flow(assign));
    EXPECT_GE(result.error_rate, bounds.min - 1e-12);
    EXPECT_LE(result.error_rate, bounds.max + 1e-12);
  }
}

TEST(Flow, AllReliabilityAchievesMinimumBound) {
  // Fraction-1 ranking assigns every majority DC; the remaining (tied) DCs
  // contribute min = max, so any fill achieves the exact minimum rate.
  Rng rng(199);
  const IncompleteSpec spec = random_spec(6, 2, 0.5, rng);
  const RateBounds bounds = exact_error_bounds(spec);
  const FlowResult result = run_flow(spec, test::paper_flow("assign:all"));
  EXPECT_NEAR(result.error_rate, bounds.min, 1e-12);
}

TEST(Flow, DelayModeFasterOrEqual) {
  Rng rng(211);
  int ok = 0;
  const int trials = 6;
  for (int t = 0; t < trials; ++t) {
    const IncompleteSpec spec = random_spec(6, 2, 0.4, rng);
    const double d_delay =
        run_flow(spec, "assign:conventional" + test::kDelayLowerHalf)
            .stats.delay_ps;
    const double d_power =
        run_flow(spec, test::paper_flow("assign:conventional")).stats.delay_ps;
    if (d_delay <= d_power * 1.05 + 1e-9) ++ok;
  }
  EXPECT_GE(ok, trials - 1);
}

TEST(Flow, RankingFractionZeroEqualsConventional) {
  Rng rng(223);
  const IncompleteSpec spec = random_spec(6, 2, 0.5, rng);
  const FlowResult a = run_flow(spec, test::paper_flow("assign:ranking(0)"));
  const FlowResult b = run_flow(spec, test::paper_flow("assign:conventional"));
  EXPECT_EQ(a.implementation, b.implementation);
  EXPECT_NEAR(a.error_rate, b.error_rate, 1e-15);
}

TEST(Flow, LowerHalfPipelineCompletesIncompleteSpec) {
  // The flow's lower half on a spec with DCs left: espresso completes it
  // (conventional assignment), and the netlist implements that completion.
  IncompleteSpec spec("s", 3, 1);
  spec.output(0).set_phase(1, Phase::kOne);
  spec.output(0).set_phase(0, Phase::kDc);
  spec.output(0).set_phase(3, Phase::kDc);
  auto pipeline = flow::parse_pipeline("espresso | factor | aig | map:power");
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().to_string();
  flow::Design design(spec);
  ASSERT_TRUE(pipeline->run(design).ok());
  expect_respects_care_set(design.working(), spec);
  EXPECT_EQ(test::output_tables(design.netlist())[0],
            design.working().output(0));
}

TEST(Flow, ResynRecipePreservesFunctionAndCareSet) {
  Rng rng(229);
  const IncompleteSpec spec = random_spec(6, 3, 0.5, rng);
  for (const char* assign : {"assign:conventional", "assign:ranking(0.5)"}) {
    const FlowResult result = run_flow(
        spec, std::string(assign) +
                  " | espresso | factor | aig | resyn | map:power | analyze "
                  "| error_rate");
    expect_respects_care_set(result.implementation, spec);
    const std::vector<TernaryTruthTable> mapped =
        test::output_tables(result.netlist);
    for (unsigned o = 0; o < spec.num_outputs(); ++o)
      EXPECT_EQ(mapped[o], result.implementation.output(o));
  }
}

TEST(Flow, ResynRecipeSameErrorRate) {
  // The refactoring recipe is output-preserving, so the realized error
  // rate must be identical to the direct recipe's.
  Rng rng(231);
  const IncompleteSpec spec = random_spec(6, 2, 0.5, rng);
  EXPECT_DOUBLE_EQ(
      run_flow(spec, test::paper_flow("assign:lcf(0.55)")).error_rate,
      run_flow(spec,
               "assign:lcf(0.55) | espresso | factor | aig | resyn | "
               "map:power | analyze | error_rate")
          .error_rate);
}

TEST(Flow, StatsArePopulated) {
  Rng rng(227);
  const IncompleteSpec spec = random_spec(5, 2, 0.3, rng);
  const FlowResult result =
      run_flow(spec, test::paper_flow("assign:lcf(0.55)"));
  EXPECT_GT(result.stats.area, 0.0);
  EXPECT_GT(result.stats.delay_ps, 0.0);
  EXPECT_GT(result.stats.power_uw, 0.0);
  EXPECT_GT(result.stats.gates, 0u);
}

}  // namespace
}  // namespace rdc
