// Unit tests for ternary truth tables, multi-output specs and neighbor
// statistics.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "oracles/error_rate.hpp"
#include "oracles/local_complexity.hpp"
#include "tt/incomplete_spec.hpp"
#include "tt/neighbor_stats.hpp"
#include "tt/ternary_function.hpp"

namespace rdc {
namespace {

TEST(TernaryTruthTable, StartsAllOff) {
  const TernaryTruthTable f(4);
  EXPECT_EQ(f.size(), 16u);
  EXPECT_EQ(f.on_count(), 0u);
  EXPECT_EQ(f.dc_count(), 0u);
  EXPECT_EQ(f.off_count(), 16u);
  for (std::uint32_t m = 0; m < 16; ++m) EXPECT_EQ(f.phase(m), Phase::kZero);
}

TEST(TernaryTruthTable, SetAndGetPhases) {
  TernaryTruthTable f(3);
  f.set_phase(0, Phase::kOne);
  f.set_phase(5, Phase::kDc);
  EXPECT_EQ(f.phase(0), Phase::kOne);
  EXPECT_EQ(f.phase(5), Phase::kDc);
  EXPECT_EQ(f.phase(1), Phase::kZero);
  EXPECT_TRUE(f.is_on(0));
  EXPECT_TRUE(f.is_dc(5));
  EXPECT_TRUE(f.is_off(1));
  EXPECT_TRUE(f.is_care(0));
  EXPECT_FALSE(f.is_care(5));
}

TEST(TernaryTruthTable, OverwritePhaseKeepsInvariant) {
  TernaryTruthTable f(3);
  f.set_phase(2, Phase::kOne);
  f.set_phase(2, Phase::kDc);
  EXPECT_EQ(f.phase(2), Phase::kDc);
  EXPECT_EQ(f.on_count(), 0u);
  f.set_phase(2, Phase::kZero);
  EXPECT_EQ(f.dc_count(), 0u);
  EXPECT_EQ(f.off_count(), 8u);
}

TEST(TernaryTruthTable, CountsAndProbabilities) {
  TernaryTruthTable f(4);
  for (std::uint32_t m = 0; m < 4; ++m) f.set_phase(m, Phase::kOne);
  for (std::uint32_t m = 4; m < 12; ++m) f.set_phase(m, Phase::kDc);
  EXPECT_EQ(f.on_count(), 4u);
  EXPECT_EQ(f.dc_count(), 8u);
  EXPECT_EQ(f.off_count(), 4u);
  EXPECT_DOUBLE_EQ(f.f1(), 0.25);
  EXPECT_DOUBLE_EQ(f.f_dc(), 0.5);
  EXPECT_DOUBLE_EQ(f.f0(), 0.25);
}

TEST(TernaryTruthTable, DcMinterms) {
  TernaryTruthTable f(5);
  f.set_phase(3, Phase::kDc);
  f.set_phase(17, Phase::kDc);
  f.set_phase(31, Phase::kDc);
  EXPECT_EQ(f.dc_minterms(), (std::vector<std::uint32_t>{3, 17, 31}));
}

TEST(TernaryTruthTable, NeighborCounts) {
  // 2-input function: 00 -> 1, 01 -> 0, 10 -> DC, 11 -> 1.
  TernaryTruthTable f(2);
  f.set_phase(0b00, Phase::kOne);
  f.set_phase(0b01, Phase::kZero);
  f.set_phase(0b10, Phase::kDc);
  f.set_phase(0b11, Phase::kOne);
  const NeighborTable table(f);
  // Neighbors of 10 are 11 (on) and 00 (on).
  EXPECT_EQ(table.at(0b10).on, 2u);
  EXPECT_EQ(table.at(0b10).off, 0u);
  EXPECT_EQ(table.at(0b10).dc, 0u);
  // Neighbors of 00 are 01 (off) and 10 (DC).
  EXPECT_EQ(table.at(0b00).on, 0u);
  EXPECT_EQ(table.at(0b00).off, 1u);
  EXPECT_EQ(table.at(0b00).dc, 1u);
}

TEST(TernaryTruthTable, WithAllDcAssigned) {
  TernaryTruthTable f(3);
  f.set_phase(1, Phase::kDc);
  f.set_phase(6, Phase::kDc);
  const TernaryTruthTable to_one = f.with_all_dc_assigned(Phase::kOne);
  EXPECT_TRUE(to_one.fully_specified());
  EXPECT_TRUE(to_one.is_on(1));
  EXPECT_TRUE(to_one.is_on(6));
  const TernaryTruthTable to_zero = f.with_all_dc_assigned(Phase::kZero);
  EXPECT_TRUE(to_zero.fully_specified());
  EXPECT_TRUE(to_zero.is_off(1));
}

TEST(TernaryTruthTable, RejectsTooManyInputs) {
  EXPECT_THROW(TernaryTruthTable(21), std::invalid_argument);
}

TEST(TernaryTruthTable, ToString) {
  TernaryTruthTable f(2);
  f.set_phase(1, Phase::kOne);
  f.set_phase(2, Phase::kDc);
  EXPECT_EQ(f.to_string(), "01-0");
}

TEST(NeighborTable, MatchesDirectCounts) {
  Rng rng(11);
  TernaryTruthTable f(6);
  for (std::uint32_t m = 0; m < f.size(); ++m)
    f.set_phase(m, static_cast<Phase>(rng.below(3)));
  const NeighborTable table(f);
  const std::vector<NeighborCounts> direct = oracle::neighbor_counts(f);
  for (std::uint32_t m = 0; m < f.size(); ++m) {
    EXPECT_EQ(table.at(m).on, direct[m].on);
    EXPECT_EQ(table.at(m).off, direct[m].off);
    EXPECT_EQ(table.at(m).dc, direct[m].dc);
  }
}

TEST(NeighborTable, SamePhaseNeighbors) {
  TernaryTruthTable f(2);
  f.set_phase(0, Phase::kOne);
  f.set_phase(1, Phase::kOne);
  f.set_phase(2, Phase::kZero);
  f.set_phase(3, Phase::kDc);
  const NeighborTable table(f);
  EXPECT_EQ(oracle::same_phase_neighbors(table, f, 0), 1u);  // 1 is on
  EXPECT_EQ(oracle::same_phase_neighbors(table, f, 3), 0u);
  std::vector<std::uint8_t> all(f.size());
  table.same_phase_neighbors(f, all);
  for (std::uint32_t m = 0; m < f.size(); ++m)
    EXPECT_EQ(all[m], oracle::same_phase_neighbors(table, f, m)) << m;
}

TEST(IncompleteSpec, Construction) {
  const IncompleteSpec spec("example", 4, 3);
  EXPECT_EQ(spec.name(), "example");
  EXPECT_EQ(spec.num_inputs(), 4u);
  EXPECT_EQ(spec.num_outputs(), 3u);
  EXPECT_TRUE(spec.fully_specified());
  EXPECT_DOUBLE_EQ(spec.dc_fraction(), 0.0);
}

TEST(IncompleteSpec, DcFractionAcrossOutputs) {
  IncompleteSpec spec("s", 3, 2);
  spec.output(0).set_phase(0, Phase::kDc);
  spec.output(0).set_phase(1, Phase::kDc);
  spec.output(1).set_phase(7, Phase::kDc);
  EXPECT_EQ(spec.total_dc_count(), 3u);
  EXPECT_DOUBLE_EQ(spec.dc_fraction(), 3.0 / 16.0);
  EXPECT_FALSE(spec.fully_specified());
}

TernaryTruthTable random_table(unsigned n, double dc_density, Rng& rng) {
  TernaryTruthTable f(n);
  for (std::uint32_t m = 0; m < f.size(); ++m) {
    if (rng.flip(dc_density))
      f.set_phase(m, Phase::kDc);
    else
      f.set_phase(m, rng.flip(0.5) ? Phase::kOne : Phase::kZero);
  }
  return f;
}

// Differential property test: the bit-sliced vertical-counter build must be
// bit-exact with the scalar reference on every minterm, across the sub-word
// lattices (n < 6) and the multi-word ones, at every DC density extreme.
TEST(NeighborTable, WordParallelMatchesScalar) {
  Rng rng(2024);
  for (unsigned n = 1; n <= 12; ++n) {
    for (const double density : {0.0, 0.3, 0.6, 1.0}) {
      const TernaryTruthTable f = random_table(n, density, rng);
      const NeighborTable fast(f);
      const std::vector<NeighborCounts> slow = oracle::neighbor_counts(f);
      for (std::uint32_t m = 0; m < f.size(); ++m) {
        ASSERT_EQ(fast.at(m).on, slow[m].on)
            << "n=" << n << " density=" << density << " m=" << m;
        ASSERT_EQ(fast.at(m).off, slow[m].off)
            << "n=" << n << " density=" << density << " m=" << m;
        ASSERT_EQ(fast.at(m).dc, slow[m].dc)
            << "n=" << n << " density=" << density << " m=" << m;
      }
    }
  }
}

TEST(TernaryTruthTable, BitAccessorsAgreeWithPhases) {
  Rng rng(2025);
  const TernaryTruthTable f = random_table(7, 0.4, rng);
  const BitVec& on = f.on_bits();
  const BitVec& dc = f.dc_bits();
  const BitVec care = f.care_bits();
  const BitVec off = f.off_bits();
  for (std::uint32_t m = 0; m < f.size(); ++m) {
    EXPECT_EQ(on.get(m), f.is_on(m));
    EXPECT_EQ(dc.get(m), f.is_dc(m));
    EXPECT_EQ(care.get(m), f.is_care(m));
    EXPECT_EQ(off.get(m), f.is_off(m));
  }
  EXPECT_EQ(on.count() + off.count() + dc.count(), f.size());
}

}  // namespace
}  // namespace rdc
