// Unit and property tests for the BDD manager, cross-checked against
// explicit truth tables.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "oracles/bdd.hpp"
#include "oracles/bdd_ops.hpp"
#include "reliability/complexity.hpp"
#include "reliability/error_rate.hpp"
#include "reliability/estimates.hpp"

namespace rdc::oracle {
namespace {

TernaryTruthTable random_ternary(unsigned n, Rng& rng) {
  TernaryTruthTable f(n);
  for (std::uint32_t m = 0; m < f.size(); ++m)
    f.set_phase(m, static_cast<Phase>(rng.below(3)));
  return f;
}

TEST(Bdd, ConstantsAndVars) {
  BddManager mgr(3);
  EXPECT_EQ(mgr.one(), !mgr.zero());
  EXPECT_EQ(mgr.sat_count(mgr.one()), 8.0);
  EXPECT_EQ(mgr.sat_count(mgr.zero()), 0.0);
  for (unsigned v = 0; v < 3; ++v) {
    EXPECT_EQ(mgr.sat_count(mgr.var(v)), 4.0);
    EXPECT_TRUE(mgr.evaluate(mgr.var(v), 1u << v));
    EXPECT_FALSE(mgr.evaluate(mgr.var(v), 0));
  }
}

TEST(Bdd, BasicConnectives) {
  BddManager mgr(2);
  const BddEdge a = mgr.var(0);
  const BddEdge b = mgr.var(1);
  const BddEdge f_and = mgr.bdd_and(a, b);
  const BddEdge f_or = mgr.bdd_or(a, b);
  const BddEdge f_xor = mgr.bdd_xor(a, b);
  for (std::uint32_t m = 0; m < 4; ++m) {
    const bool va = m & 1, vb = (m >> 1) & 1;
    EXPECT_EQ(mgr.evaluate(f_and, m), va && vb);
    EXPECT_EQ(mgr.evaluate(f_or, m), va || vb);
    EXPECT_EQ(mgr.evaluate(f_xor, m), va != vb);
  }
}

TEST(Bdd, IteIsCanonical) {
  BddManager mgr(3);
  const BddEdge a = mgr.var(0);
  const BddEdge b = mgr.var(1);
  // a & b built two different ways must be the same edge.
  const BddEdge x = mgr.bdd_and(a, b);
  const BddEdge y = mgr.ite(a, b, mgr.zero());
  EXPECT_EQ(x, y);
  // De Morgan as edges.
  EXPECT_EQ(!mgr.bdd_or(a, b), mgr.bdd_and(!a, !b));
}

TEST(Bdd, CofactorBehaves) {
  BddManager mgr(2);
  const BddEdge f = mgr.bdd_and(mgr.var(0), mgr.var(1));
  EXPECT_EQ(mgr.cofactor(f, 0, true), mgr.var(1));
  EXPECT_EQ(mgr.cofactor(f, 0, false), mgr.zero());
}

TEST(Bdd, FlipVarShiftsSet) {
  BddManager mgr(3);
  Rng rng(5);
  const TernaryTruthTable f = random_ternary(3, rng);
  const BddEdge on = mgr.from_phase(f, Phase::kOne);
  for (unsigned v = 0; v < 3; ++v) {
    const BddEdge shifted = mgr.flip_var(on, v);
    for (std::uint32_t m = 0; m < 8; ++m)
      EXPECT_EQ(mgr.evaluate(shifted, m), mgr.evaluate(on, flip_bit(m, v)));
    // Involutive.
    EXPECT_EQ(mgr.flip_var(shifted, v), on);
  }
}

TEST(Bdd, FromPhaseMatchesTruthTable) {
  Rng rng(17);
  for (unsigned n = 2; n <= 8; ++n) {
    BddManager mgr(n);
    const TernaryTruthTable f = random_ternary(n, rng);
    const SymbolicSpec sym = to_symbolic(mgr, f);
    for (std::uint32_t m = 0; m < f.size(); ++m) {
      EXPECT_EQ(mgr.evaluate(sym.on, m), f.is_on(m));
      EXPECT_EQ(mgr.evaluate(sym.dc, m), f.is_dc(m));
      EXPECT_EQ(mgr.evaluate(sym.off, m), f.is_off(m));
    }
    EXPECT_EQ(mgr.sat_count(sym.on), static_cast<double>(f.on_count()));
    EXPECT_EQ(mgr.sat_count(sym.dc), static_cast<double>(f.dc_count()));
  }
}

TEST(Bdd, NodeCountSharing) {
  BddManager mgr(4);
  // x0 & x1 & x2 & x3: chain of 4 internal nodes + terminal.
  BddEdge f = mgr.one();
  for (unsigned v = 0; v < 4; ++v) f = mgr.bdd_and(f, mgr.var(v));
  EXPECT_EQ(mgr.node_count(f), 5u);
}

TEST(BddOps, SymbolicComplexityMatchesEnumerative) {
  Rng rng(23);
  for (int trial = 0; trial < 5; ++trial) {
    const unsigned n = 4 + static_cast<unsigned>(trial);
    BddManager mgr(n);
    const TernaryTruthTable f = random_ternary(n, rng);
    const SymbolicSpec sym = to_symbolic(mgr, f);
    EXPECT_NEAR(symbolic_complexity_factor(mgr, sym), complexity_factor(f),
                1e-12);
  }
}

TEST(BddOps, SymbolicBordersMatchEnumerative) {
  Rng rng(29);
  for (int trial = 0; trial < 5; ++trial) {
    const unsigned n = 4 + static_cast<unsigned>(trial);
    BddManager mgr(n);
    const TernaryTruthTable f = random_ternary(n, rng);
    const SymbolicSpec sym = to_symbolic(mgr, f);
    const BorderCounts expected = count_borders(f);
    const BorderCounts got = symbolic_borders(mgr, sym);
    EXPECT_EQ(got.b0, expected.b0);
    EXPECT_EQ(got.b1, expected.b1);
    EXPECT_EQ(got.bdc, expected.bdc);
  }
}

TEST(BddOps, SymbolicBaseErrorMatchesEnumerative) {
  Rng rng(31);
  for (int trial = 0; trial < 5; ++trial) {
    const unsigned n = 4 + static_cast<unsigned>(trial);
    BddManager mgr(n);
    const TernaryTruthTable f = random_ternary(n, rng);
    const SymbolicSpec sym = to_symbolic(mgr, f);
    const ErrorBounds bounds = exact_error_bounds(f);
    EXPECT_EQ(symbolic_base_error(mgr, sym),
              static_cast<double>(bounds.base_error));
  }
}

TEST(Bdd, RejectsBadVarCount) {
  EXPECT_THROW(BddManager(0), std::invalid_argument);
  EXPECT_THROW(BddManager(31), std::invalid_argument);
}

}  // namespace
}  // namespace rdc::oracle
