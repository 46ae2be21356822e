// Tests for the exact (Quine-McCluskey + branch-and-bound) minimizer oracle,
// and cross-checks of the heuristic ESPRESSO loop against it.
#include <gtest/gtest.h>

#include <bit>

#include "common/rng.hpp"
#include "espresso/espresso.hpp"
#include "oracles/artifact_checks.hpp"
#include "oracles/exact.hpp"

namespace rdc {
namespace {

using oracle::cover_is_valid_for;
using oracle::exact_minimize;
using oracle::minimum_sop_size;
using oracle::prime_implicants;

TernaryTruthTable random_ternary(unsigned n, double dc, Rng& rng) {
  TernaryTruthTable f(n);
  for (std::uint32_t m = 0; m < f.size(); ++m) {
    if (rng.flip(dc))
      f.set_phase(m, Phase::kDc);
    else
      f.set_phase(m, rng.flip(0.5) ? Phase::kOne : Phase::kZero);
  }
  return f;
}

/// Brute-force minimum SOP size for tiny n by enumerating all cube subsets
/// is infeasible; instead verify minimality by checking no cover of size
/// k-1 exists over the prime implicants (exhaustive for small prime sets).
bool has_cover_of_size(const std::vector<Cube>& primes,
                       const TernaryTruthTable& f, std::size_t k,
                       std::size_t start, std::vector<Cube>& chosen) {
  if (chosen.size() == k) {
    Cover cover(f.num_inputs(), chosen);
    return cover_is_valid_for(cover, f);
  }
  for (std::size_t i = start; i < primes.size(); ++i) {
    chosen.push_back(primes[i]);
    if (has_cover_of_size(primes, f, k, i + 1, chosen)) return true;
    chosen.pop_back();
  }
  return false;
}

TEST(PrimeImplicants, XorHasAllMinterms) {
  TernaryTruthTable f(3);
  for (std::uint32_t m = 0; m < 8; ++m)
    if (std::popcount(m) % 2) f.set_phase(m, Phase::kOne);
  const auto primes = prime_implicants(f);
  // Parity: every on-minterm is its own prime.
  EXPECT_EQ(primes.size(), 4u);
  for (const Cube& p : primes) EXPECT_EQ(p.literal_count(3), 3u);
}

TEST(PrimeImplicants, AbsorbDontCares) {
  // on = {11}, dc = {10, 01}: primes are x0 and x1 (DCs absorbed).
  TernaryTruthTable f(2);
  f.set_phase(0b11, Phase::kOne);
  f.set_phase(0b10, Phase::kDc);
  f.set_phase(0b01, Phase::kDc);
  const auto primes = prime_implicants(f);
  ASSERT_EQ(primes.size(), 2u);
  EXPECT_EQ(primes[0].literal_count(2), 1u);
  EXPECT_EQ(primes[1].literal_count(2), 1u);
}

TEST(PrimeImplicants, AllArePrime) {
  // No prime may be expandable without hitting the off-set.
  Rng rng(601);
  for (int trial = 0; trial < 10; ++trial) {
    const TernaryTruthTable f = random_ternary(5, 0.3, rng);
    for (const Cube& p : prime_implicants(f)) {
      // p must avoid the off-set ...
      for (std::uint32_t m = 0; m < f.size(); ++m)
        if (f.is_off(m)) {
          EXPECT_FALSE(p.contains_minterm(m, 5));
        }
      // ... and raising any literal must hit it.
      for (unsigned v = 0; v < 5; ++v) {
        const bool fixed = test_bit(p.mask0, v) != test_bit(p.mask1, v);
        if (!fixed) continue;
        const Cube raised = p.expanded(v);
        bool hits_off = false;
        for (std::uint32_t m = 0; m < f.size() && !hits_off; ++m)
          hits_off = f.is_off(m) && raised.contains_minterm(m, 5);
        EXPECT_TRUE(hits_off) << "expandable prime " << p.to_string(5);
      }
    }
  }
}

TEST(ExactMinimize, KnownSmallFunctions) {
  // f = x0 (split space): exactly 1 cube.
  TernaryTruthTable f(3);
  for (std::uint32_t m = 0; m < 8; ++m)
    if (m & 1) f.set_phase(m, Phase::kOne);
  EXPECT_EQ(minimum_sop_size(f), 1u);

  // 3-input parity: 4 cubes.
  TernaryTruthTable parity(3);
  for (std::uint32_t m = 0; m < 8; ++m)
    if (std::popcount(m) % 2) parity.set_phase(m, Phase::kOne);
  EXPECT_EQ(minimum_sop_size(parity), 4u);

  // Constant 0: empty cover.
  EXPECT_EQ(minimum_sop_size(TernaryTruthTable(3)), 0u);
}

TEST(ExactMinimize, CoverIsValidAndMinimal) {
  Rng rng(607);
  for (int trial = 0; trial < 15; ++trial) {
    const TernaryTruthTable f = random_ternary(4, 0.35, rng);
    const Cover exact = exact_minimize(f);
    EXPECT_TRUE(cover_is_valid_for(exact, f)) << "trial " << trial;
    if (exact.size() > 0) {
      const auto primes = prime_implicants(f);
      std::vector<Cube> chosen;
      EXPECT_FALSE(
          has_cover_of_size(primes, f, exact.size() - 1, 0, chosen))
          << "trial " << trial << ": a smaller cover exists";
    }
  }
}

TEST(ExactMinimize, HeuristicNeverBeatsExact) {
  Rng rng(613);
  for (int trial = 0; trial < 20; ++trial) {
    const unsigned n = 4 + static_cast<unsigned>(rng.below(3));
    const TernaryTruthTable f = random_ternary(n, 0.4, rng);
    const std::size_t exact = minimum_sop_size(f);
    const std::size_t heuristic = minimize(f).size();
    EXPECT_GE(heuristic, exact) << "trial " << trial;
  }
}

TEST(ExactMinimize, HeuristicIsNearOptimal) {
  // ESPRESSO should land within a small factor of the optimum on random
  // functions of moderate size (it usually matches exactly).
  Rng rng(617);
  std::size_t exact_total = 0;
  std::size_t heuristic_total = 0;
  for (int trial = 0; trial < 15; ++trial) {
    const TernaryTruthTable f = random_ternary(6, 0.4, rng);
    exact_total += minimum_sop_size(f);
    heuristic_total += minimize(f).size();
  }
  EXPECT_LE(heuristic_total,
            exact_total + (exact_total + 9) / 10 + 2);  // within ~10% + 2
}

TEST(ExactMinimize, UsesDcsForSmallerCovers) {
  // With a generous DC set, the exact cover of an awkward function
  // collapses to one cube.
  TernaryTruthTable f(3);
  f.set_phase(0b000, Phase::kOne);
  f.set_phase(0b111, Phase::kOne);
  for (std::uint32_t m = 1; m < 7; ++m) f.set_phase(m, Phase::kDc);
  EXPECT_EQ(minimum_sop_size(f), 1u);
}

}  // namespace
}  // namespace rdc
