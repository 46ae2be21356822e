// Unit and property tests for the ESPRESSO engine: the expand, irredundant
// and reduce kernels on minterm bitsets and the full minimization loop.
#include <gtest/gtest.h>

#include <bit>

#include "common/rng.hpp"
#include "espresso/espresso.hpp"
#include "espresso/expand.hpp"
#include "espresso/irredundant.hpp"
#include "espresso/reduce.hpp"
#include "oracles/artifact_checks.hpp"

namespace rdc {
namespace {

TernaryTruthTable random_ternary(unsigned n, double dc_prob, Rng& rng) {
  TernaryTruthTable f(n);
  for (std::uint32_t m = 0; m < f.size(); ++m) {
    if (rng.flip(dc_prob))
      f.set_phase(m, Phase::kDc);
    else
      f.set_phase(m, rng.flip(0.5) ? Phase::kOne : Phase::kZero);
  }
  return f;
}

TEST(Expand, RaisesToPrime) {
  // f = x0 x1 + x0 !x1 should expand to x0.
  Cover on(2);
  on.add(Cube::parse("11"));
  on.add(Cube::parse("10"));
  Cover off(2);
  off.add(Cube::parse("0-"));
  const Cover expanded = expand(on, off.minterm_bits());
  ASSERT_EQ(expanded.size(), 1u);
  EXPECT_EQ(expanded.cube(0).to_string(2), "1-");
}

TEST(Expand, RespectsOffSet) {
  Cover on(2);
  on.add(Cube::parse("11"));
  Cover off(2);
  off.add(Cube::parse("00"));
  const Cover expanded = expand(on, off.minterm_bits());
  // Can expand to 1- or -1 but must not hit 00.
  for (std::uint32_t m = 0; m < 4; ++m)
    if (off.covers_minterm(m)) {
      EXPECT_FALSE(expanded.covers_minterm(m));
    }
  EXPECT_TRUE(expanded.covers_minterm(0b11));
}

TEST(Irredundant, DropsRedundantCube) {
  Cover on(2);
  on.add(Cube::parse("1-"));
  on.add(Cube::parse("-1"));
  on.add(Cube::parse("11"));  // covered by either of the others
  const Cover result = irredundant(on, Cover(2).minterm_bits());
  EXPECT_EQ(result.size(), 2u);
}

TEST(Irredundant, UsesDcSet) {
  Cover on(2);
  on.add(Cube::parse("11"));
  Cover dc(2);
  dc.add(Cube::parse("11"));
  // The only on cube is inside the DC set: droppable.
  const Cover result = irredundant(on, dc.minterm_bits());
  EXPECT_TRUE(result.empty_cover());
}

TEST(Reduce, ShrinksOverlap) {
  // f = 1- + -1; reducing one cube against the other must keep the cover.
  Cover on(2);
  on.add(Cube::parse("1-"));
  on.add(Cube::parse("-1"));
  const Cover reduced = reduce(on, Cover(2).minterm_bits());
  for (std::uint32_t m = 1; m < 4; ++m)
    EXPECT_TRUE(reduced.covers_minterm(m)) << m;
  EXPECT_FALSE(reduced.covers_minterm(0));
}

TEST(Espresso, MinimizeSimpleFunction) {
  // f = x0 x1 + x0 !x1 (+ DC nothing) = x0.
  TernaryTruthTable f(2);
  f.set_phase(0b01, Phase::kOne);
  f.set_phase(0b11, Phase::kOne);
  const Cover cover = minimize(f);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover.cube(0).to_string(2), "1-");
  EXPECT_TRUE(oracle::cover_is_valid_for(cover, f));
}

TEST(Espresso, UsesDcToMerge) {
  // on = {00}, dc = {01, 10, 11}: a single full cube suffices.
  TernaryTruthTable f(2);
  f.set_phase(0b00, Phase::kOne);
  f.set_phase(0b01, Phase::kDc);
  f.set_phase(0b10, Phase::kDc);
  f.set_phase(0b11, Phase::kDc);
  const Cover cover = minimize(f);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover.cube(0).literal_count(2), 0u);
}

TEST(Espresso, ConstantFunctions) {
  TernaryTruthTable zero(3);
  EXPECT_TRUE(minimize(zero).empty_cover());
  const TernaryTruthTable one = zero.with_all_dc_assigned(Phase::kZero);
  EXPECT_TRUE(minimize(one).empty_cover());
}

TEST(Espresso, ParityIsWorstCase) {
  // 4-input XOR needs 8 implicants; no DC help available.
  TernaryTruthTable f(4);
  for (std::uint32_t m = 0; m < 16; ++m)
    if (std::popcount(m) % 2) f.set_phase(m, Phase::kOne);
  const Cover cover = minimize(f);
  EXPECT_EQ(cover.size(), 8u);
  EXPECT_TRUE(oracle::cover_is_valid_for(cover, f));
}

TEST(Espresso, RandomFunctionsAreValidAndIrredundant) {
  Rng rng(47);
  for (int trial = 0; trial < 20; ++trial) {
    const unsigned n = 4 + static_cast<unsigned>(rng.below(3));
    const TernaryTruthTable f = random_ternary(n, 0.4, rng);
    const Cover cover = minimize(f);
    EXPECT_TRUE(oracle::cover_is_valid_for(cover, f)) << "trial " << trial;
    // Never worse than one cube per on-minterm.
    EXPECT_LE(cover.size(), f.on_count());
  }
}

TEST(Espresso, ConventionalAssignMatchesCover) {
  Rng rng(53);
  TernaryTruthTable f = random_ternary(6, 0.5, rng);
  const TernaryTruthTable original = f;
  const Cover cover = conventional_assign(f);
  EXPECT_TRUE(f.fully_specified());
  for (std::uint32_t m = 0; m < f.size(); ++m) {
    // Care minterms unchanged; DCs follow the cover.
    if (original.is_care(m))
      EXPECT_EQ(f.phase(m), original.phase(m));
    else
      EXPECT_EQ(f.is_on(m), cover.covers_minterm(m));
  }
}

TEST(Espresso, MinimalSopSizeOfSpec) {
  IncompleteSpec spec("two", 2, 2);
  spec.output(0).set_phase(0b01, Phase::kOne);
  spec.output(0).set_phase(0b11, Phase::kOne);
  spec.output(1).set_phase(0b00, Phase::kOne);
  EXPECT_EQ(minimal_sop_size(spec), 2u);
}

}  // namespace
}  // namespace rdc
