// Tests for the AIG: strashing, construction from factored forms,
// simulation and balancing.
#include <gtest/gtest.h>

#include <bit>

#include "aig/aig.hpp"
#include "aig/balance.hpp"
#include "aig/simulate.hpp"
#include "common/rng.hpp"
#include "espresso/espresso.hpp"
#include "oracles/artifact_checks.hpp"
#include "sop/factor.hpp"

namespace rdc {
namespace {

TEST(Aig, ConstantFolding) {
  Aig aig(2);
  const std::uint32_t a = aig.input_literal(0);
  EXPECT_EQ(aig.make_and(a, aiglit::kFalse), aiglit::kFalse);
  EXPECT_EQ(aig.make_and(a, aiglit::kTrue), a);
  EXPECT_EQ(aig.make_and(a, a), a);
  EXPECT_EQ(aig.make_and(a, aiglit::negate(a)), aiglit::kFalse);
  EXPECT_EQ(aig.num_ands(), 0u);
}

TEST(Aig, StrashingSharesNodes) {
  Aig aig(2);
  const std::uint32_t a = aig.input_literal(0);
  const std::uint32_t b = aig.input_literal(1);
  const std::uint32_t x = aig.make_and(a, b);
  const std::uint32_t y = aig.make_and(b, a);  // commuted
  EXPECT_EQ(x, y);
  EXPECT_EQ(aig.num_ands(), 1u);
}

TEST(Aig, OrAndXorSemantics) {
  Aig aig(2);
  const std::uint32_t a = aig.input_literal(0);
  const std::uint32_t b = aig.input_literal(1);
  aig.add_output(aig.make_or(a, b));
  aig.add_output(aig.make_xor(a, b));
  const AigSimulator sim(aig);
  for (std::uint32_t m = 0; m < 4; ++m) {
    const bool va = m & 1, vb = (m >> 1) & 1;
    EXPECT_EQ(sim.literal_value(aig.outputs()[0], m), va || vb);
    EXPECT_EQ(sim.literal_value(aig.outputs()[1], m), va != vb);
  }
}

TEST(Aig, BuildFromFactorTree) {
  // (x0 & !x1) | x2
  FactorTree t;
  t.kind = FactorTree::Kind::kOr;
  FactorTree andpart;
  andpart.kind = FactorTree::Kind::kAnd;
  andpart.children.push_back(FactorTree::literal(0, true));
  andpart.children.push_back(FactorTree::literal(1, false));
  t.children.push_back(andpart);
  t.children.push_back(FactorTree::literal(2, true));

  Aig aig(3);
  aig.add_output(aig.build(t));
  const AigSimulator sim(aig);
  for (std::uint32_t m = 0; m < 8; ++m)
    EXPECT_EQ(sim.literal_value(aig.outputs()[0], m), oracle::evaluate(t, m));
}

TEST(Aig, LevelsAndDepth) {
  Aig aig(4);
  std::uint32_t acc = aig.input_literal(0);
  for (unsigned i = 1; i < 4; ++i)
    acc = aig.make_and(acc, aig.input_literal(i));
  aig.add_output(acc);
  EXPECT_EQ(aig.depth(), 3u);  // left-leaning chain
}

TEST(Aig, FanoutCounts) {
  Aig aig(2);
  const std::uint32_t x =
      aig.make_and(aig.input_literal(0), aig.input_literal(1));
  const std::uint32_t y = aig.make_and(x, aiglit::negate(aig.input_literal(0)));
  aig.add_output(x);
  aig.add_output(y);
  const std::vector<unsigned> fanout = aig.fanout_counts();
  EXPECT_EQ(fanout[aiglit::node_of(x)], 2u);  // y + output
  EXPECT_EQ(fanout[aiglit::node_of(y)], 1u);
  EXPECT_EQ(fanout[1], 2u);  // input 0 feeds x and y
}

TEST(Simulate, SignalProbability) {
  Aig aig(3);
  const std::uint32_t x =
      aig.make_and(aig.input_literal(0), aig.input_literal(1));
  aig.add_output(x);
  aig.add_output(aiglit::negate(x));
  aig.add_output(aiglit::kTrue);
  // The fraction of input vectors on which each output is 1.
  const AigSimulator sim(aig);
  const auto probability = [&](unsigned o) {
    const TernaryTruthTable t = sim.output_table(o);
    return static_cast<double>(t.on_count()) / t.size();
  };
  EXPECT_DOUBLE_EQ(probability(0), 0.25);
  EXPECT_DOUBLE_EQ(probability(1), 0.75);
  EXPECT_DOUBLE_EQ(probability(2), 1.0);
}

TEST(Simulate, OutputTableMatchesEvaluation) {
  Rng rng(151);
  TernaryTruthTable f(7);
  for (std::uint32_t m = 0; m < f.size(); ++m)
    f.set_phase(m, rng.flip(0.5) ? Phase::kOne : Phase::kZero);
  Aig aig(7);
  aig.add_output(aig.build(factor(minimize(f))));
  EXPECT_EQ(AigSimulator(aig).output_table(0), f);
}

TEST(Balance, ReducesChainDepth) {
  Aig aig(8);
  std::uint32_t acc = aig.input_literal(0);
  for (unsigned i = 1; i < 8; ++i)
    acc = aig.make_and(acc, aig.input_literal(i));
  aig.add_output(acc);
  EXPECT_EQ(aig.depth(), 7u);
  const Aig balanced = balance(aig);
  EXPECT_EQ(balanced.depth(), 3u);  // log2(8)
}

TEST(Balance, PreservesFunction) {
  Rng rng(157);
  for (int trial = 0; trial < 10; ++trial) {
    TernaryTruthTable f(6);
    for (std::uint32_t m = 0; m < f.size(); ++m)
      f.set_phase(m, rng.flip(0.4) ? Phase::kOne : Phase::kZero);
    Aig aig(6);
    aig.add_output(aig.build(factor(minimize(f))));
    const Aig balanced = balance(aig);
    EXPECT_EQ(AigSimulator(balanced).output_table(0), f) << "trial " << trial;
    EXPECT_LE(balanced.depth(), aig.depth());
  }
}

TEST(Balance, MultiOutputSharedLogic) {
  Aig aig(4);
  const std::uint32_t shared =
      aig.make_and(aig.input_literal(0), aig.input_literal(1));
  aig.add_output(aig.make_and(shared, aig.input_literal(2)));
  aig.add_output(aig.make_and(shared, aig.input_literal(3)));
  const Aig balanced = balance(aig);
  const AigSimulator sim(balanced);
  for (std::uint32_t m = 0; m < 16; ++m) {
    const bool s = (m & 1) && (m & 2);
    EXPECT_EQ(sim.literal_value(balanced.outputs()[0], m), s && (m & 4));
    EXPECT_EQ(sim.literal_value(balanced.outputs()[1], m), s && (m & 8));
  }
}

TEST(Aig, BuildWithCustomLeaves) {
  Aig aig(3);
  const std::uint32_t inner =
      aig.make_and(aig.input_literal(0), aig.input_literal(1));
  FactorTree t;
  t.kind = FactorTree::Kind::kOr;
  t.children.push_back(FactorTree::literal(0, true));   // -> inner
  t.children.push_back(FactorTree::literal(1, false));  // -> !x2
  const std::uint32_t lit =
      aig.build(t, {inner, aig.input_literal(2)});
  aig.add_output(lit);
  const AigSimulator sim(aig);
  for (std::uint32_t m = 0; m < 8; ++m) {
    const bool expected = ((m & 1) && (m & 2)) || !(m & 4);
    EXPECT_EQ(sim.literal_value(lit, m), expected);
  }
}

}  // namespace
}  // namespace rdc
