// Unit tests for the paper's core: complexity factors, ranking-based and
// LC^f-based DC assignment, exact error rates and bounds.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "common/rng.hpp"
#include "oracles/error_rate.hpp"
#include "reliability/assignment.hpp"
#include "reliability/complexity.hpp"
#include "reliability/error_rate.hpp"
#include "reliability/fault_model.hpp"
#include "tt/neighbor_stats.hpp"

namespace rdc {
namespace {

TernaryTruthTable random_ternary(unsigned n, Rng& rng) {
  TernaryTruthTable f(n);
  for (std::uint32_t m = 0; m < f.size(); ++m)
    f.set_phase(m, static_cast<Phase>(rng.below(3)));
  return f;
}

TEST(Complexity, ConstantFunctionIsOne) {
  TernaryTruthTable f(4);  // all off
  EXPECT_DOUBLE_EQ(complexity_factor(f), 1.0);
}

TEST(Complexity, ParityIsZero) {
  TernaryTruthTable f(4);
  for (std::uint32_t m = 0; m < 16; ++m)
    if (std::popcount(m) % 2) f.set_phase(m, Phase::kOne);
  EXPECT_DOUBLE_EQ(complexity_factor(f), 0.0);
}

TEST(Complexity, HalfSpaceSplit) {
  // f = x0: every minterm has exactly one neighbor of opposite phase.
  TernaryTruthTable f(3);
  for (std::uint32_t m = 0; m < 8; ++m)
    if (m & 1) f.set_phase(m, Phase::kOne);
  EXPECT_DOUBLE_EQ(complexity_factor(f), 2.0 / 3.0);
}

TEST(Complexity, ExpectedFromSignalProbabilities) {
  TernaryTruthTable f(4);
  for (std::uint32_t m = 0; m < 4; ++m) f.set_phase(m, Phase::kOne);
  for (std::uint32_t m = 4; m < 12; ++m) f.set_phase(m, Phase::kDc);
  // f1 = .25, fdc = .5, f0 = .25.
  EXPECT_DOUBLE_EQ(expected_complexity_factor(f),
                   0.25 * 0.25 + 0.25 * 0.25 + 0.5 * 0.5);
}

TEST(Complexity, LocalFactorOnUniformFunction) {
  // Constant function: every neighbor of a neighbor shares the phase, so
  // LC^f = n * n / n^2 = 1 for every minterm.
  TernaryTruthTable f(4);
  for (std::uint32_t m = 0; m < 16; ++m)
    EXPECT_DOUBLE_EQ(local_complexity_factor(f, m), 1.0);
}

TEST(Complexity, LocalFactorOnParity) {
  TernaryTruthTable f(4);
  for (std::uint32_t m = 0; m < 16; ++m)
    if (std::popcount(m) % 2) f.set_phase(m, Phase::kOne);
  for (std::uint32_t m = 0; m < 16; ++m)
    EXPECT_DOUBLE_EQ(local_complexity_factor(f, m), 0.0);
}

TEST(Complexity, LocalFactorAveragesOverNeighborhood) {
  // f = x0 on 3 vars: a neighbor x_j of m has same_phase count 2 (the two
  // neighbors that keep x0), except crossing x0 which flips phase. Checked
  // against a hand count for minterm 0.
  TernaryTruthTable f(3);
  for (std::uint32_t m = 0; m < 8; ++m)
    if (m & 1) f.set_phase(m, Phase::kOne);
  // Neighbors of 000: 001 (on, same-phase nbrs = 2), 010 (off, 2), 100
  // (off, 2). LC = (2+2+2)/9.
  EXPECT_DOUBLE_EQ(local_complexity_factor(f, 0), 6.0 / 9.0);
}

TEST(Complexity, SpecMeanAcrossOutputs) {
  IncompleteSpec spec("s", 4, 2);
  // Output 0 constant (C=1), output 1 parity (C=0).
  for (std::uint32_t m = 0; m < 16; ++m)
    if (std::popcount(m) % 2) spec.output(1).set_phase(m, Phase::kOne);
  EXPECT_DOUBLE_EQ(complexity_factor(spec), 0.5);
}

// The running example of Section 2.1: a DC with two on-set neighbors and
// one off-set neighbor is assigned to the on-set, etc.
TEST(RankingAssign, MajorityPhaseWins) {
  // 2-input: 00=1, 01=0, 10=DC, 11=1; DC's neighbors are both on.
  TernaryTruthTable f(2);
  f.set_phase(0b00, Phase::kOne);
  f.set_phase(0b01, Phase::kZero);
  f.set_phase(0b10, Phase::kDc);
  f.set_phase(0b11, Phase::kOne);
  const AssignmentResult r = ranking_assign(f, 1.0);
  EXPECT_EQ(r.dc_before, 1u);
  EXPECT_EQ(r.assigned, 1u);
  EXPECT_EQ(r.assigned_on, 1u);
  EXPECT_TRUE(f.is_on(0b10));
}

TEST(RankingAssign, BalancedNeighborhoodLeftUnassigned) {
  // DC whose neighbors split evenly stays DC even at fraction 1 (the paper
  // keeps w=0 minterms out of the ranked list).
  TernaryTruthTable f(2);
  f.set_phase(0b00, Phase::kOne);
  f.set_phase(0b01, Phase::kZero);
  f.set_phase(0b11, Phase::kDc);
  // Neighbors of 11: 10 (off by default), 01 (off). Majority off -> w=2.
  // Make them split: set 10 on.
  f.set_phase(0b10, Phase::kOne);
  // Now neighbors of 11: 10 (on), 01 (off) -> w = 0.
  const AssignmentResult r = ranking_assign(f, 1.0);
  EXPECT_EQ(r.assigned, 0u);
  EXPECT_TRUE(f.is_dc(0b11));
}

TEST(RankingAssign, FractionControlsCount) {
  Rng rng(61);
  for (double fraction : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    TernaryTruthTable f = random_ternary(8, rng);
    TernaryTruthTable full = f;
    const AssignmentResult all = ranking_assign(full, 1.0);
    const AssignmentResult part = ranking_assign(f, fraction);
    const auto expected = static_cast<std::uint32_t>(
        std::llround(fraction * static_cast<double>(all.assigned)));
    EXPECT_EQ(part.assigned, expected) << "fraction " << fraction;
  }
}

TEST(RankingAssign, HighestWeightAssignedFirst) {
  // Two DCs: one with |on-off| = 3, one with |on-off| = 1. At a fraction
  // that admits only one assignment, the heavy one must win.
  TernaryTruthTable f(3);
  // DC at 000: neighbors 001, 010, 100.
  f.set_phase(0b000, Phase::kDc);
  f.set_phase(0b001, Phase::kOne);
  f.set_phase(0b010, Phase::kOne);
  f.set_phase(0b100, Phase::kOne);  // w=3 toward on
  // DC at 111: neighbors 110, 101, 011.
  f.set_phase(0b111, Phase::kDc);
  f.set_phase(0b110, Phase::kOne);
  f.set_phase(0b101, Phase::kZero);
  f.set_phase(0b011, Phase::kOne);  // w=1 toward on
  const AssignmentResult r = ranking_assign(f, 0.5);
  EXPECT_EQ(r.assigned, 1u);
  EXPECT_TRUE(f.is_on(0b000));
  EXPECT_TRUE(f.is_dc(0b111));
}

TEST(RankingAssign, CountVariant) {
  Rng rng(67);
  TernaryTruthTable f = random_ternary(7, rng);
  TernaryTruthTable g = f;
  const AssignmentResult rf = ranking_assign_count(f, 5);
  EXPECT_LE(rf.assigned, 5u);
  // Equivalent to calling with the right fraction when list is larger.
  const AssignmentResult rg = ranking_assign_count(g, 0);
  EXPECT_EQ(rg.assigned, 0u);
}

TEST(RankingAssign, IncrementalAssignsSameBudget) {
  Rng rng(71);
  for (int trial = 0; trial < 10; ++trial) {
    TernaryTruthTable f = random_ternary(7, rng);
    TernaryTruthTable g = f;
    const AssignmentResult rs = ranking_assign(f, 0.6);
    const AssignmentResult ri = ranking_assign_incremental(g, 0.6);
    // The incremental variant may assign fewer (weights can vanish) but
    // never more than the budget.
    EXPECT_LE(ri.assigned, rs.dc_before);
    EXPECT_LE(ri.assigned, rs.assigned + rs.dc_before);  // sanity
  }
}

TEST(RankingAssign, IncrementalRespectsUpdatedMajorities) {
  // Chain where assigning the first DC creates a majority for the second.
  TernaryTruthTable f(2);
  f.set_phase(0b00, Phase::kOne);
  f.set_phase(0b01, Phase::kDc);
  f.set_phase(0b10, Phase::kOne);
  f.set_phase(0b11, Phase::kDc);
  // Static: 01 has neighbors 00 (on), 11 (DC) -> w=1 -> assigned on.
  //         11 has neighbors 10 (on), 01 (DC) -> w=1 -> assigned on.
  // Incremental: after 01 -> on, 11 sees two on neighbors (w=2).
  const AssignmentResult r = ranking_assign_incremental(f, 1.0);
  EXPECT_EQ(r.assigned, 2u);
  EXPECT_TRUE(f.is_on(0b01));
  EXPECT_TRUE(f.is_on(0b11));
}

TEST(LcfAssign, ThresholdGates) {
  Rng rng(73);
  TernaryTruthTable f = random_ternary(8, rng);
  TernaryTruthTable g = f;
  const AssignmentResult none = lcf_assign(f, 0.0);
  EXPECT_EQ(none.assigned, 0u);
  // With balanced (tied) DCs assigned per the pseudocode, everything
  // passes an above-1 gate.
  const AssignmentResult all = lcf_assign(g, 1.01, /*assign_balanced=*/true);
  EXPECT_EQ(all.assigned, all.dc_before);
}

TEST(LcfAssign, SkipsBalancedTiesByDefault) {
  // A DC whose neighborhood splits evenly gives no reliability benefit;
  // the default mode leaves it for the conventional optimizer.
  TernaryTruthTable f(2);
  f.set_phase(0b00, Phase::kOne);
  f.set_phase(0b01, Phase::kZero);
  f.set_phase(0b11, Phase::kDc);  // neighbors: 01 (off), 10 (off->set on)
  f.set_phase(0b10, Phase::kOne); // now neighbors of 11 split 1/1
  TernaryTruthTable g = f;
  const AssignmentResult skipped = lcf_assign(f, 1.01);
  EXPECT_EQ(skipped.assigned, 0u);
  EXPECT_TRUE(f.is_dc(0b11));
  const AssignmentResult literal = lcf_assign(g, 1.01, true);
  EXPECT_EQ(literal.assigned, 1u);
  EXPECT_TRUE(g.is_off(0b11));  // pseudocode's "else x <- 0"
}

TEST(LcfAssign, AssignsMajorityPhase) {
  TernaryTruthTable f(2);
  f.set_phase(0b00, Phase::kOne);
  f.set_phase(0b01, Phase::kZero);
  f.set_phase(0b10, Phase::kDc);
  f.set_phase(0b11, Phase::kOne);
  lcf_assign(f, 1.01);
  EXPECT_TRUE(f.is_on(0b10));  // two on neighbors
}

TEST(LcfAssign, DecisionsUseOriginalSpec) {
  // Two adjacent DCs: each must be judged against the *input* function,
  // not against the partially assigned one.
  TernaryTruthTable f(3);
  f.set_phase(0b000, Phase::kDc);
  f.set_phase(0b001, Phase::kDc);
  for (std::uint32_t m : {0b010u, 0b100u}) f.set_phase(m, Phase::kOne);
  for (std::uint32_t m : {0b011u, 0b101u}) f.set_phase(m, Phase::kZero);
  f.set_phase(0b110, Phase::kOne);
  f.set_phase(0b111, Phase::kZero);
  TernaryTruthTable g = f;
  lcf_assign(f, 1.01);
  // 000: neighbors 001(DC), 010(on), 100(on) -> on. 001: neighbors
  // 000(DC), 011(off), 101(off) -> off. If decisions leaked, 001 would see
  // 000 already assigned on.
  EXPECT_TRUE(f.is_on(0b000));
  EXPECT_TRUE(f.is_off(0b001));
  (void)g;
}

TEST(ErrorRate, FullyMaskedConstant) {
  TernaryTruthTable spec(3);  // constant 0, all care
  const TernaryTruthTable impl = spec;
  EXPECT_DOUBLE_EQ(exact_error_rate(impl, spec), 0.0);
}

TEST(ErrorRate, ParityPropagatesEverything) {
  TernaryTruthTable spec(3);
  for (std::uint32_t m = 0; m < 8; ++m)
    if (std::popcount(m) % 2) spec.set_phase(m, Phase::kOne);
  EXPECT_DOUBLE_EQ(exact_error_rate(spec, spec), 1.0);
}

TEST(ErrorRate, DcSourcesNeverOccur) {
  // spec: 00 care, everything else DC. impl: parity.
  TernaryTruthTable spec(2);
  spec.set_phase(0b01, Phase::kDc);
  spec.set_phase(0b10, Phase::kDc);
  spec.set_phase(0b11, Phase::kDc);
  TernaryTruthTable impl(2);
  impl.set_phase(0b01, Phase::kOne);
  impl.set_phase(0b10, Phase::kOne);
  // Only source is 00; both its errors flip the output: 2 events of n*2^n=8.
  EXPECT_DOUBLE_EQ(exact_error_rate(impl, spec), 0.25);
}

TEST(ErrorRate, RequiresFullySpecifiedImplementation) {
  TernaryTruthTable spec(2);
  TernaryTruthTable impl(2);
  impl.set_phase(0, Phase::kDc);
  EXPECT_THROW(exact_error_rate(impl, spec), std::invalid_argument);
}

TEST(ErrorBounds, HandComputedExample) {
  // 00=1, 01=0, 10=DC, 11=1 (the running 2-input example).
  TernaryTruthTable f(2);
  f.set_phase(0b00, Phase::kOne);
  f.set_phase(0b01, Phase::kZero);
  f.set_phase(0b10, Phase::kDc);
  f.set_phase(0b11, Phase::kOne);
  const ErrorBounds bounds = exact_error_bounds(f);
  EXPECT_EQ(bounds.base_error, 4u);   // (00,01) and (11,01), both directions
  EXPECT_EQ(bounds.min_dc_error, 0u); // DC has 2 on, 0 off neighbors
  EXPECT_EQ(bounds.max_dc_error, 2u);
  EXPECT_EQ(bounds.total_events, 8u);
  EXPECT_DOUBLE_EQ(bounds.min_rate(), 0.5);
  EXPECT_DOUBLE_EQ(bounds.max_rate(), 0.75);
}

TEST(ErrorBounds, OptimalAssignmentAchievesMinimum) {
  // Assigning every DC to its majority phase must achieve exactly the
  // min bound when ties are broken arbitrarily (min(on,off) is symmetric).
  Rng rng(79);
  for (int trial = 0; trial < 20; ++trial) {
    const unsigned n = 4 + static_cast<unsigned>(rng.below(3));
    const TernaryTruthTable spec = random_ternary(n, rng);
    const ErrorBounds bounds = exact_error_bounds(spec);

    TernaryTruthTable impl = spec;
    const NeighborTable neighbors(spec);
    for (std::uint32_t m : spec.dc_minterms()) {
      const NeighborCounts& c = neighbors.at(m);
      impl.set_phase(m, c.on >= c.off ? Phase::kOne : Phase::kZero);
    }
    const double rate = exact_error_rate(impl, spec);
    EXPECT_NEAR(rate, bounds.min_rate(), 1e-12) << "trial " << trial;
  }
}

TEST(ErrorBounds, WorstAssignmentAchievesMaximum) {
  Rng rng(83);
  for (int trial = 0; trial < 20; ++trial) {
    const unsigned n = 4 + static_cast<unsigned>(rng.below(3));
    const TernaryTruthTable spec = random_ternary(n, rng);
    const ErrorBounds bounds = exact_error_bounds(spec);

    TernaryTruthTable impl = spec;
    const NeighborTable neighbors(spec);
    for (std::uint32_t m : spec.dc_minterms()) {
      const NeighborCounts& c = neighbors.at(m);
      impl.set_phase(m, c.on < c.off ? Phase::kOne : Phase::kZero);
    }
    EXPECT_NEAR(exact_error_rate(impl, spec), bounds.max_rate(), 1e-12);
  }
}

TEST(ErrorBounds, AnyAssignmentWithinBounds) {
  Rng rng(89);
  for (int trial = 0; trial < 20; ++trial) {
    const unsigned n = 4 + static_cast<unsigned>(rng.below(3));
    const TernaryTruthTable spec = random_ternary(n, rng);
    const ErrorBounds bounds = exact_error_bounds(spec);
    TernaryTruthTable impl = spec;
    for (std::uint32_t m : spec.dc_minterms())
      impl.set_phase(m, rng.flip(0.5) ? Phase::kOne : Phase::kZero);
    const double rate = exact_error_rate(impl, spec);
    EXPECT_GE(rate, bounds.min_rate() - 1e-12);
    EXPECT_LE(rate, bounds.max_rate() + 1e-12);
  }
}

TEST(ErrorBounds, RankingImprovesOverConventionalWorstCase) {
  // Full ranking-based assignment plus majority fill must land on the exact
  // minimum bound: the ranked list covers every DC with a strict majority
  // and the fill is majority-consistent for ties.
  Rng rng(97);
  TernaryTruthTable spec = random_ternary(7, rng);
  TernaryTruthTable assigned = spec;
  ranking_assign(assigned, 1.0);
  for (std::uint32_t m : assigned.dc_minterms())
    assigned.set_phase(m, Phase::kOne);  // ties: either phase matches min
  const ErrorBounds bounds = exact_error_bounds(spec);
  EXPECT_NEAR(exact_error_rate(assigned, spec), bounds.min_rate(), 1e-12);
}

TEST(ErrorRate, MultiOutputMean) {
  IncompleteSpec spec("s", 3, 2);
  IncompleteSpec impl("s", 3, 2);
  // Output 0: constant (rate 0). Output 1: parity (rate 1).
  for (std::uint32_t m = 0; m < 8; ++m)
    if (std::popcount(m) % 2) {
      spec.output(1).set_phase(m, Phase::kOne);
      impl.output(1).set_phase(m, Phase::kOne);
    }
  EXPECT_DOUBLE_EQ(exact_error_rate(impl, spec), 0.5);
}

/// The rate under bitflip_weighted(pin_weights).
double weighted_rate(const TernaryTruthTable& implementation,
                     const TernaryTruthTable& spec,
                     std::vector<double> pin_weights) {
  return reliability::make_fault_model(
             reliability::FaultModelSpec::bitflip_weighted(
                 std::move(pin_weights)))
      ->error_rate(implementation, spec);
}

TEST(WeightedErrorRate, UniformMatchesUnweighted) {
  Rng rng(991);
  for (int trial = 0; trial < 5; ++trial) {
    const TernaryTruthTable spec = random_ternary(5, rng);
    TernaryTruthTable impl = spec;
    for (std::uint32_t m : spec.dc_minterms())
      impl.set_phase(m, rng.flip(0.5) ? Phase::kOne : Phase::kZero);
    const std::vector<double> uniform(5, 1.0);
    EXPECT_NEAR(weighted_rate(impl, spec, uniform),
                exact_error_rate(impl, spec), 1e-12);
  }
}

TEST(WeightedErrorRate, SinglePinIsolation) {
  // All weight on pin 0 of f = x0: every care source flips the output.
  TernaryTruthTable f(3);
  for (std::uint32_t m = 0; m < 8; ++m)
    if (m & 1) f.set_phase(m, Phase::kOne);
  const std::vector<double> pin0{1.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(weighted_rate(f, f, pin0), 1.0);
  const std::vector<double> pin2{0.0, 0.0, 1.0};
  EXPECT_DOUBLE_EQ(weighted_rate(f, f, pin2), 0.0);
}

TEST(WeightedErrorRate, RejectsBadWeights) {
  TernaryTruthTable f(3);
  EXPECT_THROW(weighted_rate(f, f, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(weighted_rate(f, f, {1.0, -1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(weighted_rate(f, f, {0.0, 0.0, 0.0}), std::invalid_argument);
}

TernaryTruthTable random_ternary_density(unsigned n, double dc_density,
                                         Rng& rng) {
  TernaryTruthTable f(n);
  for (std::uint32_t m = 0; m < f.size(); ++m) {
    if (rng.flip(dc_density))
      f.set_phase(m, Phase::kDc);
    else
      f.set_phase(m, rng.flip(0.5) ? Phase::kOne : Phase::kZero);
  }
  return f;
}

// Differential property tests: the word-parallel kernels must be bit-exact
// with their scalar oracles across lattice sizes (including the sub-word
// n < 6 cases, which exercise the masked in-word shifts) and DC densities
// from fully specified to all-don't-care. The k-bit and weighted kernels
// live in the fault models, so those two go through make_fault_model.
TEST(KernelDifferential, ExactErrorRateMatchesScalar) {
  Rng rng(3001);
  for (unsigned n = 1; n <= 12; ++n) {
    for (const double density : {0.0, 0.3, 0.6, 1.0}) {
      const TernaryTruthTable spec = random_ternary_density(n, density, rng);
      const TernaryTruthTable impl = spec.with_all_dc_assigned(
          rng.flip(0.5) ? Phase::kOne : Phase::kZero);
      ASSERT_EQ(exact_error_rate(impl, spec), oracle::error_rate(impl, spec))
          << "n=" << n << " density=" << density;
    }
  }
}

TEST(KernelDifferential, WeightedErrorRateMatchesScalar) {
  Rng rng(3002);
  for (unsigned n = 1; n <= 12; ++n) {
    for (const double density : {0.0, 0.3, 0.6, 1.0}) {
      const TernaryTruthTable spec = random_ternary_density(n, density, rng);
      const TernaryTruthTable impl = spec.with_all_dc_assigned(Phase::kZero);
      std::vector<double> weights(n);
      for (auto& w : weights) w = 0.1 + rng.uniform();
      ASSERT_EQ(weighted_rate(impl, spec, weights),
                oracle::error_rate_weighted(impl, spec, weights))
          << "n=" << n << " density=" << density;
    }
  }
}

TEST(KernelDifferential, KbitErrorRateMatchesScalar) {
  Rng rng(3003);
  for (unsigned n = 2; n <= 10; ++n) {
    for (const double density : {0.0, 0.3, 0.6, 1.0}) {
      const TernaryTruthTable spec = random_ternary_density(n, density, rng);
      const TernaryTruthTable impl = spec.with_all_dc_assigned(Phase::kOne);
      for (const unsigned k : {1u, 2u, 3u}) {
        if (k > n) continue;
        ASSERT_EQ(reliability::make_fault_model(
                      reliability::FaultModelSpec::bitflip(k))
                      ->error_rate(impl, spec),
                  oracle::error_rate_kbit(impl, spec, k))
            << "n=" << n << " density=" << density << " k=" << k;
      }
    }
  }
}

TEST(KernelDifferential, ComplexityFactorMatchesScalar) {
  Rng rng(3004);
  for (unsigned n = 1; n <= 12; ++n) {
    for (const double density : {0.0, 0.3, 0.6, 1.0}) {
      const TernaryTruthTable f = random_ternary_density(n, density, rng);
      ASSERT_EQ(complexity_factor(f), oracle::complexity_factor(f))
          << "n=" << n << " density=" << density;
    }
  }
}

// Regression: the weighted overload used to skip the input-count check that
// the unweighted path performs, silently producing garbage on mismatched
// lattices.
TEST(WeightedErrorRate, RejectsInputCountMismatch) {
  const TernaryTruthTable impl(3);
  const TernaryTruthTable spec(4);
  EXPECT_THROW(weighted_rate(impl, spec, {1.0, 1.0, 1.0, 1.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace rdc
