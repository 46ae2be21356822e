// Parameterized property sweeps across function sizes and DC densities:
// cross-module invariants that must hold for every (n, density, seed)
// combination.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hpp"
#include "espresso/espresso.hpp"
#include "flow/synthesis_flow.hpp"
#include "flow_specs.hpp"
#include "netlist_tables.hpp"
#include "oracles/artifact_checks.hpp"
#include "oracles/bdd_ops.hpp"
#include "oracles/cube_calculus.hpp"
#include "oracles/local_complexity.hpp"
#include "reliability/assignment.hpp"
#include "reliability/complexity.hpp"
#include "reliability/error_rate.hpp"
#include "reliability/estimates.hpp"
#include "sop/factor.hpp"

namespace rdc {
namespace {

// (num_inputs, dc_density_percent, seed)
using Params = std::tuple<unsigned, int, int>;

class FunctionProperty : public ::testing::TestWithParam<Params> {
 protected:
  TernaryTruthTable make_function() const {
    const auto [n, dc_percent, seed] = GetParam();
    Rng rng(static_cast<std::uint64_t>(seed) * 7919 + n * 31 + dc_percent);
    TernaryTruthTable f(n);
    const double dc_prob = dc_percent / 100.0;
    for (std::uint32_t m = 0; m < f.size(); ++m) {
      if (rng.flip(dc_prob))
        f.set_phase(m, Phase::kDc);
      else
        f.set_phase(m, rng.flip(0.5) ? Phase::kOne : Phase::kZero);
    }
    return f;
  }
};

TEST_P(FunctionProperty, EspressoCoverIsValid) {
  const TernaryTruthTable f = make_function();
  const Cover cover = minimize(f);
  EXPECT_TRUE(oracle::cover_is_valid_for(cover, f));
  EXPECT_LE(cover.size(), f.on_count());
}

TEST_P(FunctionProperty, ComplementIsExact) {
  const TernaryTruthTable f = make_function();
  const Cover on = Cover::from_phase(f, Phase::kOne);
  const Cover comp = oracle::complement(on);
  for (std::uint32_t m = 0; m < f.size(); ++m)
    EXPECT_EQ(comp.covers_minterm(m), !f.is_on(m));
}

TEST_P(FunctionProperty, FactoredFormMatchesCover) {
  const TernaryTruthTable f = make_function();
  const Cover cover = minimize(f);
  const FactorTree tree = factor(cover);
  for (std::uint32_t m = 0; m < f.size(); ++m)
    EXPECT_EQ(oracle::evaluate(tree, m), cover.covers_minterm(m));
}

TEST_P(FunctionProperty, ErrorBoundsOrdered) {
  const TernaryTruthTable f = make_function();
  const ErrorBounds bounds = exact_error_bounds(f);
  EXPECT_LE(bounds.min_rate(), bounds.max_rate() + 1e-15);
  EXPECT_GE(bounds.min_rate(), 0.0);
  EXPECT_LE(bounds.max_rate(), 1.0);
}

TEST_P(FunctionProperty, EstimatesOrdered) {
  const TernaryTruthTable f = make_function();
  const EstimatedBounds signal = signal_probability_bounds(f);
  const EstimatedBounds border = border_bounds(f);
  EXPECT_LE(signal.min, signal.max + 1e-12);
  EXPECT_LE(border.min, border.max + 1e-12);
}

TEST_P(FunctionProperty, ComplexityFactorInUnitInterval) {
  const TernaryTruthTable f = make_function();
  const double cf = complexity_factor(f);
  EXPECT_GE(cf, 0.0);
  EXPECT_LE(cf, 1.0);
  // Local factors average out near the neighborhood-weighted global value;
  // each individually stays in [0, 1].
  const NeighborTable neighbors(f);
  for (std::uint32_t m = 0; m < std::min<std::uint32_t>(f.size(), 64); ++m) {
    const double lcf = oracle::local_complexity_factor(f, neighbors, m);
    EXPECT_GE(lcf, 0.0);
    EXPECT_LE(lcf, 1.0);
  }
}

TEST_P(FunctionProperty, RankingAssignMonotoneInFraction) {
  const TernaryTruthTable f = make_function();
  std::uint32_t previous = 0;
  for (const double fraction : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    TernaryTruthTable g = f;
    const AssignmentResult r = ranking_assign(g, fraction);
    EXPECT_GE(r.assigned, previous);
    previous = r.assigned;
  }
}

TEST_P(FunctionProperty, RankingNeverTouchesCareMinterms) {
  const TernaryTruthTable f = make_function();
  TernaryTruthTable g = f;
  ranking_assign(g, 1.0);
  for (std::uint32_t m = 0; m < f.size(); ++m)
    if (f.is_care(m)) {
      EXPECT_EQ(g.phase(m), f.phase(m));
    }
}

TEST_P(FunctionProperty, LcfThresholdMonotone) {
  const TernaryTruthTable f = make_function();
  std::uint32_t previous = 0;
  for (const double threshold : {0.0, 0.35, 0.55, 0.75, 1.01}) {
    TernaryTruthTable g = f;
    const AssignmentResult r = lcf_assign(g, threshold);
    EXPECT_GE(r.assigned, previous);
    previous = r.assigned;
  }
}

TEST_P(FunctionProperty, SymbolicMetricsAgree) {
  const TernaryTruthTable f = make_function();
  if (f.num_inputs() > 10) GTEST_SKIP();
  oracle::BddManager mgr(f.num_inputs());
  const oracle::SymbolicSpec sym = oracle::to_symbolic(mgr, f);
  EXPECT_NEAR(oracle::symbolic_complexity_factor(mgr, sym),
              complexity_factor(f), 1e-9);
  const BorderCounts tt_borders = count_borders(f);
  const BorderCounts bdd_borders = oracle::symbolic_borders(mgr, sym);
  EXPECT_EQ(tt_borders.b0, bdd_borders.b0);
  EXPECT_EQ(tt_borders.b1, bdd_borders.b1);
  EXPECT_EQ(tt_borders.bdc, bdd_borders.bdc);
}

TEST_P(FunctionProperty, ConventionalAssignmentWithinBounds) {
  const TernaryTruthTable f = make_function();
  const ErrorBounds bounds = exact_error_bounds(f);
  TernaryTruthTable g = f;
  conventional_assign(g);
  const double rate = exact_error_rate(g, f);
  EXPECT_GE(rate, bounds.min_rate() - 1e-12);
  EXPECT_LE(rate, bounds.max_rate() + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FunctionProperty,
    ::testing::Combine(::testing::Values(4u, 6u, 8u),
                       ::testing::Values(0, 30, 60, 90),
                       ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<Params>& param_info) {
      const Params& p = param_info.param;
      return std::string("n")
          .append(std::to_string(std::get<0>(p)))
          .append("_dc")
          .append(std::to_string(std::get<1>(p)))
          .append("_seed")
          .append(std::to_string(std::get<2>(p)));
    });

// Flow-level properties on small multi-output specs.
class FlowProperty : public ::testing::TestWithParam<int> {};

TEST_P(FlowProperty, CareSetRespectedUnderEveryPolicy) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  IncompleteSpec spec("p", 5, 2);
  for (auto& f : spec.outputs())
    for (std::uint32_t m = 0; m < f.size(); ++m)
      f.set_phase(m, static_cast<Phase>(rng.below(3)));
  for (const std::string& assign : test::kAssignPasses) {
    const FlowResult result = run_flow(spec, test::paper_flow(assign));
    const std::vector<TernaryTruthTable> mapped =
        test::output_tables(result.netlist);
    for (unsigned o = 0; o < spec.num_outputs(); ++o) {
      for (std::uint32_t m = 0; m < spec.output(o).size(); ++m) {
        if (!spec.output(o).is_care(m)) continue;
        ASSERT_EQ(result.implementation.output(o).is_on(m),
                  spec.output(o).is_on(m));
      }
      ASSERT_EQ(mapped[o], result.implementation.output(o));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowProperty, ::testing::Range(1, 6));

}  // namespace
}  // namespace rdc
