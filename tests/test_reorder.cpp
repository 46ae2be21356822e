// Tests for BDD variable swapping, permutation and greedy reordering.
#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.hpp"
#include "oracles/bdd.hpp"
#include "oracles/reorder.hpp"

namespace rdc::oracle {
namespace {

TernaryTruthTable random_complete(unsigned n, Rng& rng) {
  TernaryTruthTable f(n);
  for (std::uint32_t m = 0; m < f.size(); ++m)
    f.set_phase(m, rng.flip(0.5) ? Phase::kOne : Phase::kZero);
  return f;
}

std::uint32_t apply_perm(std::uint32_t x, const std::vector<unsigned>& perm) {
  std::uint32_t y = 0;
  for (unsigned v = 0; v < perm.size(); ++v)
    if ((x >> v) & 1u) y |= 1u << perm[v];
  return y;
}

TEST(Reorder, RestrictVarAnyLevel) {
  Rng rng(701);
  BddManager mgr(5);
  const TernaryTruthTable f = random_complete(5, rng);
  const BddEdge on = mgr.from_phase(f, Phase::kOne);
  for (unsigned v = 0; v < 5; ++v) {
    for (const bool value : {false, true}) {
      const BddEdge r = mgr.restrict_var(on, v, value);
      for (std::uint32_t m = 0; m < 32; ++m) {
        std::uint32_t probe = m;
        if (value)
          probe |= 1u << v;
        else
          probe &= ~(1u << v);
        EXPECT_EQ(mgr.evaluate(r, m), mgr.evaluate(on, probe));
      }
    }
  }
}

TEST(Reorder, SwapVariablesSemantics) {
  Rng rng(709);
  BddManager mgr(4);
  const TernaryTruthTable f = random_complete(4, rng);
  const BddEdge on = mgr.from_phase(f, Phase::kOne);
  const BddEdge swapped = swap_variables(mgr, on, 1, 3);
  for (std::uint32_t m = 0; m < 16; ++m) {
    // Exchange bits 1 and 3 of m.
    const bool b1 = (m >> 1) & 1u, b3 = (m >> 3) & 1u;
    std::uint32_t x = m & ~0b1010u;
    if (b1) x |= 1u << 3;
    if (b3) x |= 1u << 1;
    EXPECT_EQ(mgr.evaluate(swapped, m), mgr.evaluate(on, x));
  }
  // Involutive.
  EXPECT_EQ(swap_variables(mgr, swapped, 1, 3), on);
}

TEST(Reorder, SwapSameVariableIsIdentity) {
  BddManager mgr(3);
  const BddEdge f = mgr.bdd_and(mgr.var(0), mgr.var(2));
  EXPECT_EQ(swap_variables(mgr, f, 1, 1), f);
}

TEST(Reorder, PermuteVariablesSemantics) {
  Rng rng(719);
  BddManager mgr(5);
  const TernaryTruthTable f = random_complete(5, rng);
  const BddEdge on = mgr.from_phase(f, Phase::kOne);
  const std::vector<unsigned> perm{3, 0, 4, 1, 2};
  const BddEdge g = permute_variables(mgr, on, perm);
  for (std::uint32_t x = 0; x < 32; ++x)
    EXPECT_EQ(mgr.evaluate(g, apply_perm(x, perm)), mgr.evaluate(on, x));
}

TEST(Reorder, IdentityPermutation) {
  BddManager mgr(4);
  const BddEdge f = mgr.bdd_xor(mgr.var(0), mgr.var(3));
  std::vector<unsigned> identity(4);
  std::iota(identity.begin(), identity.end(), 0u);
  EXPECT_EQ(permute_variables(mgr, f, identity), f);
}

TEST(Reorder, GreedyShrinksInterleavedComparator) {
  // f = (x0 & x3) | (x1 & x4) | (x2 & x5): the natural order interleaves
  // the pairs and blows up; grouping the pairs is exponentially smaller.
  BddManager mgr(6);
  BddEdge f = mgr.zero();
  for (unsigned k = 0; k < 3; ++k)
    f = mgr.bdd_or(f, mgr.bdd_and(mgr.var(k), mgr.var(k + 3)));
  const ReorderResult result = reduce_nodes_greedy(mgr, f, 8);
  EXPECT_LT(result.nodes_after, result.nodes_before);
  // Result must stay the same function modulo the found permutation.
  for (std::uint32_t x = 0; x < 64; ++x)
    EXPECT_EQ(mgr.evaluate(result.function, apply_perm(x, result.permutation)),
              mgr.evaluate(f, x));
}

TEST(Reorder, GreedyIsNoWorse) {
  Rng rng(727);
  for (int trial = 0; trial < 5; ++trial) {
    BddManager mgr(6);
    const TernaryTruthTable f = random_complete(6, rng);
    const BddEdge on = mgr.from_phase(f, Phase::kOne);
    const ReorderResult result = reduce_nodes_greedy(mgr, on, 3);
    EXPECT_LE(result.nodes_after, result.nodes_before);
  }
}

}  // namespace
}  // namespace rdc::oracle
