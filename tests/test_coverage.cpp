// Additional coverage: BDD operation corners, espresso expansion
// internals, flow option combinations, and small numeric corners.
#include <gtest/gtest.h>

#include <bit>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "espresso/expand.hpp"
#include "flow/synthesis_flow.hpp"
#include "flow_specs.hpp"
#include "oracles/bdd.hpp"
#include "reliability/fault_model.hpp"

namespace rdc {
namespace {

TEST(BddCoverage, XorChainSatCount) {
  oracle::BddManager mgr(6);
  oracle::BddEdge f = mgr.zero();
  for (unsigned v = 0; v < 6; ++v) f = mgr.bdd_xor(f, mgr.var(v));
  // Parity: exactly half the assignments satisfy.
  EXPECT_DOUBLE_EQ(mgr.sat_count(f), 32.0);
  // With complement edges, parity needs one node per level + terminal.
  EXPECT_EQ(mgr.node_count(f), 7u);
}

TEST(BddCoverage, RestrictIsMemoizedConsistently) {
  oracle::BddManager mgr(4);
  const oracle::BddEdge f =
      mgr.bdd_or(mgr.bdd_and(mgr.var(0), mgr.var(2)),
                 mgr.bdd_and(mgr.var(1), mgr.var(3)));
  const oracle::BddEdge once = mgr.restrict_var(f, 2, true);
  const oracle::BddEdge twice = mgr.restrict_var(f, 2, true);
  EXPECT_EQ(once, twice);
  // Restricting an absent variable is the identity.
  const oracle::BddEdge g = mgr.bdd_and(mgr.var(0), mgr.var(1));
  EXPECT_EQ(mgr.restrict_var(g, 3, false), g);
}

TEST(BddCoverage, EvaluateComplementedEdges) {
  oracle::BddManager mgr(3);
  const oracle::BddEdge f = mgr.bdd_and(mgr.var(0), !mgr.var(2));
  for (std::uint32_t m = 0; m < 8; ++m) {
    EXPECT_EQ(mgr.evaluate(f, m), ((m & 1) != 0) && ((m & 4) == 0));
    EXPECT_EQ(mgr.evaluate(!f, m), !mgr.evaluate(f, m));
  }
}

TEST(ExpandCoverage, ExpandCubeStopsAtPrime) {
  // off = {x0=0, x1=0}: the cube 11 can raise nothing.
  Cover off(2);
  off.add(Cube::parse("0-"));
  off.add(Cube::parse("-0"));
  const Cube prime =
      expand_cube(Cube::parse("11"), off.minterm_bits(), Cover(2));
  EXPECT_EQ(prime.to_string(2), "11");
}

TEST(ExpandCoverage, ExpandPrefersCoveringPeers) {
  // Expanding 000 against an empty off-set: any order reaches the full
  // cube; peers bias the first raise but the result is the same.
  Cover peers(3);
  peers.add(Cube::parse("100"));
  const Cube prime =
      expand_cube(Cube::parse("000"), Cover(3).minterm_bits(), peers);
  EXPECT_EQ(prime.literal_count(3), 0u);
}

TEST(FlowCoverage, LcfBalancedOptionChangesAssignment) {
  Rng rng(1009);
  IncompleteSpec spec("opt", 6, 2);
  for (auto& f : spec.outputs())
    for (std::uint32_t m = 0; m < f.size(); ++m)
      f.set_phase(m, static_cast<Phase>(rng.below(3)));
  const FlowResult a = run_flow(spec, test::paper_flow("assign:lcf(0.55)"));
  const FlowResult b =
      run_flow(spec, test::paper_flow("assign:lcf(0.55,balanced)"));
  // The literal mode assigns at least as many DCs.
  EXPECT_GE(b.assignment.assigned, a.assignment.assigned);
}

TEST(FlowCoverage, CombinedOptionsStillCorrect) {
  Rng rng(1013);
  IncompleteSpec spec("combo", 5, 2);
  for (auto& f : spec.outputs())
    for (std::uint32_t m = 0; m < f.size(); ++m)
      f.set_phase(m, static_cast<Phase>(rng.below(3)));
  const FlowResult result =
      run_flow(spec,
               "assign:ranking(0.5) | espresso | extract | resyn | balance | "
               "map:delay | analyze | error_rate");
  for (unsigned o = 0; o < spec.num_outputs(); ++o) {
    ASSERT_EQ(result.netlist.output_table(o), result.implementation.output(o));
    for (std::uint32_t m = 0; m < spec.output(o).size(); ++m)
      if (spec.output(o).is_care(m)) {
        ASSERT_EQ(result.implementation.output(o).is_on(m),
                  spec.output(o).is_on(m));
      }
  }
}

TEST(SamplingCoverage, FullWidthFlip) {
  // k = n: exactly one event per source (all bits flipped).
  TernaryTruthTable f(3);
  for (std::uint32_t m = 0; m < 8; ++m)
    if (std::popcount(m) % 2) f.set_phase(m, Phase::kOne);
  // Flipping all 3 bits of a parity function always flips the output.
  const auto model =
      reliability::make_fault_model(reliability::FaultModelSpec::bitflip(3));
  EXPECT_DOUBLE_EQ(model->error_rate(f, f), 1.0);
}

TEST(StatsCoverage, SummarizeSingleton) {
  const double v[] = {4.2};
  const Summary s = summarize({v, 1});
  EXPECT_DOUBLE_EQ(s.min, 4.2);
  EXPECT_DOUBLE_EQ(s.max, 4.2);
  EXPECT_DOUBLE_EQ(s.mean, 4.2);
}

}  // namespace
}  // namespace rdc
