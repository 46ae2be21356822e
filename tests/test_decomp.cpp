// Tests for the nodal-decomposition extension (Section 4): SDC extraction,
// reliability reassignment and output preservation.
#include <gtest/gtest.h>

#include "aig/simulate.hpp"
#include "common/rng.hpp"
#include "decomp/renode.hpp"
#include "espresso/espresso.hpp"
#include "sop/factor.hpp"

namespace rdc {
namespace {

Aig random_multi_output_aig(unsigned n, unsigned outputs, Rng& rng) {
  Aig aig(n);
  for (unsigned o = 0; o < outputs; ++o) {
    TernaryTruthTable f(n);
    for (std::uint32_t m = 0; m < f.size(); ++m)
      f.set_phase(m, rng.flip(0.4) ? Phase::kOne : Phase::kZero);
    aig.add_output(aig.build(factor(minimize(f))));
  }
  return aig;
}

void expect_equivalent(const Aig& a, const Aig& b) {
  ASSERT_EQ(a.num_inputs(), b.num_inputs());
  ASSERT_EQ(a.outputs().size(), b.outputs().size());
  const AigSimulator sa(a);
  const AigSimulator sb(b);
  for (unsigned o = 0; o < a.outputs().size(); ++o)
    EXPECT_EQ(sa.output_table(o), sb.output_table(o)) << "output " << o;
}

TEST(Renode, PreservesOutputsOnRandomNetworks) {
  Rng rng(251);
  for (int trial = 0; trial < 8; ++trial) {
    const Aig aig = random_multi_output_aig(6, 3, rng);
    const RenodeResult result = renode_and_assign(aig);
    expect_equivalent(aig, result.network);
    EXPECT_GT(result.nodes_total, 0u);
  }
}

TEST(Renode, PreservesOutputsWithoutReliabilityPass) {
  Rng rng(257);
  const Aig aig = random_multi_output_aig(7, 2, rng);
  RenodeOptions options;
  options.reliability_assign = false;
  const RenodeResult result = renode_and_assign(aig, options);
  expect_equivalent(aig, result.network);
  EXPECT_EQ(result.dcs_assigned, 0u);
}

TEST(Renode, FindsSdcsInRedundantStructure) {
  // Build a network with a correlated internal signal: g = a&b feeds two
  // nodes, so the boundary pattern (g=1, a=0) is unreachable at any node
  // with both g and a as leaves.
  Aig aig(3);
  const std::uint32_t a = aig.input_literal(0);
  const std::uint32_t b = aig.input_literal(1);
  const std::uint32_t c = aig.input_literal(2);
  const std::uint32_t g = aig.make_and(a, b);
  const std::uint32_t h1 = aig.make_and(g, c);
  const std::uint32_t h2 = aig.make_and(g, aiglit::negate(a));  // constant 0!
  aig.add_output(h1);
  aig.add_output(h2);
  aig.add_output(g);
  const RenodeResult result = renode_and_assign(aig);
  expect_equivalent(aig, result.network);
  EXPECT_GT(result.sdc_patterns, 0u);
}

TEST(Renode, CountsConsistent) {
  Rng rng(263);
  const Aig aig = random_multi_output_aig(6, 2, rng);
  const RenodeResult result = renode_and_assign(aig);
  EXPECT_LE(result.nodes_resynthesized, result.nodes_total);
  EXPECT_LE(result.dcs_assigned, result.sdc_patterns);
}

TEST(OdcRenode, PreservesOutputsOnRandomNetworks) {
  Rng rng(281);
  for (int trial = 0; trial < 6; ++trial) {
    const Aig aig = random_multi_output_aig(6, 3, rng);
    const OdcRenodeResult result = renode_with_odcs(aig, {}, 16);
    expect_equivalent(aig, result.network);
  }
}

TEST(OdcRenode, FindsObservabilityDcs) {
  // s = a & b feeds out1 = a | s and out2 = a | !s. Every vector with
  // a = 1 forces both outputs to 1, so s's boundary patterns (a=1, b=*)
  // are observability DCs even though they do occur.
  Aig aig(2);
  const std::uint32_t a = aig.input_literal(0);
  const std::uint32_t b = aig.input_literal(1);
  const std::uint32_t s = aig.make_and(a, b);
  aig.add_output(aig.make_or(a, s));
  aig.add_output(aig.make_or(a, aiglit::negate(s)));
  const OdcRenodeResult result = renode_with_odcs(aig);
  expect_equivalent(aig, result.network);
  EXPECT_GE(result.rewrites, 1u);
  EXPECT_GE(result.odc_patterns, 2u);
}

TEST(OdcRenode, RespectsRewriteBudget) {
  Rng rng(283);
  const Aig aig = random_multi_output_aig(6, 3, rng);
  const OdcRenodeResult result = renode_with_odcs(aig, {}, 1);
  EXPECT_LE(result.rewrites, 1u);
  expect_equivalent(aig, result.network);
}

TEST(OdcRenode, WithoutReliabilityPassStillSound) {
  Rng rng(293);
  const Aig aig = random_multi_output_aig(7, 2, rng);
  RenodeOptions options;
  options.reliability_assign = false;
  const OdcRenodeResult result = renode_with_odcs(aig, options, 8);
  EXPECT_EQ(result.dcs_assigned, 0u);
  expect_equivalent(aig, result.network);
}

TEST(InternalErrorRate, DetectsFullPropagation) {
  // Chain of ANDs driving the only output: flipping the output node always
  // propagates; flipping others often masks. Rate must be in (0, 1].
  Rng rng(269);
  Aig aig(4);
  std::uint32_t acc = aig.input_literal(0);
  for (unsigned i = 1; i < 4; ++i)
    acc = aig.make_and(acc, aig.input_literal(i));
  aig.add_output(acc);
  const double rate = internal_error_rate(aig, 500, rng);
  EXPECT_GT(rate, 0.0);
  EXPECT_LE(rate, 1.0);
}

TEST(InternalErrorRate, SingleNodeAlwaysPropagates) {
  Rng rng(271);
  Aig aig(2);
  aig.add_output(aig.make_and(aig.input_literal(0), aig.input_literal(1)));
  EXPECT_DOUBLE_EQ(internal_error_rate(aig, 200, rng), 1.0);
}

TEST(InternalErrorRate, EmptyNetworkIsZero) {
  Rng rng(277);
  Aig aig(2);
  aig.add_output(aig.input_literal(0));
  EXPECT_DOUBLE_EQ(internal_error_rate(aig, 100, rng), 0.0);
}

}  // namespace
}  // namespace rdc
