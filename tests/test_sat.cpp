// Tests for the CDCL SAT solver, Tseitin encoding and equivalence checking.
#include <gtest/gtest.h>

#include <vector>

#include "aig/balance.hpp"
#include "aig/simulate.hpp"
#include "common/rng.hpp"
#include "espresso/espresso.hpp"
#include "mapper/tree_map.hpp"
#include "mapper/unmap.hpp"
#include "sat/cnf.hpp"
#include "sat/equivalence.hpp"
#include "sat/solver.hpp"
#include "sop/factor.hpp"

namespace rdc {
namespace {

using sat::Lit;
using sat::SolveResult;
using sat::Solver;

TEST(SatSolver, TrivialSat) {
  Solver s;
  const unsigned a = s.new_var();
  EXPECT_TRUE(s.add_clause({Lit(a, false)}));
  EXPECT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_TRUE(s.model_value(a));
}

TEST(SatSolver, TrivialUnsat) {
  Solver s;
  const unsigned a = s.new_var();
  s.add_clause({Lit(a, false)});
  EXPECT_FALSE(s.add_clause({Lit(a, true)}));
  EXPECT_EQ(s.solve(), SolveResult::kUnsat);
}

TEST(SatSolver, EmptyClauseIsUnsat) {
  Solver s;
  s.new_var();
  EXPECT_FALSE(s.add_clause({}));
  EXPECT_EQ(s.solve(), SolveResult::kUnsat);
}

TEST(SatSolver, TautologyIgnored) {
  Solver s;
  const unsigned a = s.new_var();
  EXPECT_TRUE(s.add_clause({Lit(a, false), Lit(a, true)}));
  EXPECT_EQ(s.solve(), SolveResult::kSat);
}

TEST(SatSolver, ChainPropagation) {
  // a, a->b, b->c, c->d: all forced true.
  Solver s;
  std::vector<unsigned> v;
  for (int i = 0; i < 4; ++i) v.push_back(s.new_var());
  s.add_clause({Lit(v[0], false)});
  for (int i = 0; i < 3; ++i)
    s.add_clause({Lit(v[i], true), Lit(v[i + 1], false)});
  EXPECT_EQ(s.solve(), SolveResult::kSat);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(s.model_value(v[i]));
}

TEST(SatSolver, XorChainUnsat) {
  // x1 ^ x2 = 1, x2 ^ x3 = 1, x1 ^ x3 = 1 is unsatisfiable.
  Solver s;
  const unsigned x1 = s.new_var();
  const unsigned x2 = s.new_var();
  const unsigned x3 = s.new_var();
  auto add_xor1 = [&](unsigned a, unsigned b) {
    s.add_clause({Lit(a, false), Lit(b, false)});
    s.add_clause({Lit(a, true), Lit(b, true)});
  };
  add_xor1(x1, x2);
  add_xor1(x2, x3);
  add_xor1(x1, x3);
  EXPECT_EQ(s.solve(), SolveResult::kUnsat);
}

TEST(SatSolver, PigeonHole32Unsat) {
  // 3 pigeons, 2 holes: classic small UNSAT requiring real search.
  Solver s;
  unsigned p[3][2];
  for (auto& row : p)
    for (auto& v : row) v = s.new_var();
  for (auto& row : p)
    s.add_clause({Lit(row[0], false), Lit(row[1], false)});
  for (int hole = 0; hole < 2; ++hole)
    for (int i = 0; i < 3; ++i)
      for (int j = i + 1; j < 3; ++j)
        s.add_clause({Lit(p[i][hole], true), Lit(p[j][hole], true)});
  EXPECT_EQ(s.solve(), SolveResult::kUnsat);
}

TEST(SatSolver, PigeonHole43Unsat) {
  Solver s;
  constexpr int kPigeons = 4, kHoles = 3;
  unsigned p[kPigeons][kHoles];
  for (auto& row : p)
    for (auto& v : row) v = s.new_var();
  for (auto& row : p) {
    sat::Clause c;
    for (const unsigned v : row) c.push_back(Lit(v, false));
    s.add_clause(c);
  }
  for (int hole = 0; hole < kHoles; ++hole)
    for (int i = 0; i < kPigeons; ++i)
      for (int j = i + 1; j < kPigeons; ++j)
        s.add_clause({Lit(p[i][hole], true), Lit(p[j][hole], true)});
  EXPECT_EQ(s.solve(), SolveResult::kUnsat);
  EXPECT_GT(s.num_conflicts(), 0u);
}

TEST(SatSolver, RandomInstancesMatchBruteForce) {
  Rng rng(501);
  for (int trial = 0; trial < 40; ++trial) {
    const unsigned n = 4 + static_cast<unsigned>(rng.below(6));
    const unsigned clauses = n + static_cast<unsigned>(rng.below(4 * n));
    std::vector<sat::Clause> instance;
    for (unsigned c = 0; c < clauses; ++c) {
      sat::Clause clause;
      const unsigned width = 1 + static_cast<unsigned>(rng.below(3));
      for (unsigned k = 0; k < width; ++k)
        clause.push_back(Lit(static_cast<unsigned>(rng.below(n)),
                             rng.flip(0.5)));
      instance.push_back(clause);
    }
    // Brute force.
    bool brute_sat = false;
    for (std::uint32_t m = 0; m < (1u << n) && !brute_sat; ++m) {
      bool all = true;
      for (const auto& clause : instance) {
        bool any = false;
        for (const Lit l : clause)
          any |= (((m >> l.var()) & 1u) != 0) != l.negative();
        if (!any) {
          all = false;
          break;
        }
      }
      brute_sat = all;
    }
    // Solver.
    Solver s;
    for (unsigned v = 0; v < n; ++v) s.new_var();
    bool consistent = true;
    for (const auto& clause : instance)
      consistent = s.add_clause(clause) && consistent;
    const bool solver_sat = consistent && s.solve() == SolveResult::kSat;
    EXPECT_EQ(solver_sat, brute_sat) << "trial " << trial;
    if (solver_sat) {
      // Model must actually satisfy the instance.
      for (const auto& clause : instance) {
        bool any = false;
        for (const Lit l : clause)
          any |= s.model_value(l.var()) != l.negative();
        EXPECT_TRUE(any) << "trial " << trial;
      }
    }
  }
}

TEST(Cnf, EncodeSingleAnd) {
  Aig aig(2);
  aig.add_output(aig.make_and(aig.input_literal(0), aig.input_literal(1)));
  Solver s;
  std::vector<unsigned> inputs{s.new_var(), s.new_var()};
  const auto vars = sat::encode_aig(aig, inputs, s);
  // Force output true: both inputs must be true.
  s.add_clause({sat::aig_literal(vars, aig.outputs()[0])});
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_TRUE(s.model_value(inputs[0]));
  EXPECT_TRUE(s.model_value(inputs[1]));
}

TEST(Equivalence, IdenticalAigs) {
  Rng rng(503);
  TernaryTruthTable f(6);
  for (std::uint32_t m = 0; m < f.size(); ++m)
    f.set_phase(m, rng.flip(0.4) ? Phase::kOne : Phase::kZero);
  Aig a(6);
  a.add_output(a.build(factor(minimize(f))));
  const EquivalenceResult r = check_equivalence(a, a);
  EXPECT_TRUE(r.equivalent);
}

TEST(Equivalence, BalancePreservesFunction) {
  Rng rng(509);
  for (int trial = 0; trial < 5; ++trial) {
    TernaryTruthTable f(7);
    for (std::uint32_t m = 0; m < f.size(); ++m)
      f.set_phase(m, rng.flip(0.4) ? Phase::kOne : Phase::kZero);
    Aig a(7);
    a.add_output(a.build(factor(minimize(f))));
    const Aig b = balance(a);
    EXPECT_TRUE(check_equivalence(a, b).equivalent) << "trial " << trial;
  }
}

TEST(Equivalence, MappedNetlistMatchesAig) {
  Rng rng(521);
  TernaryTruthTable f(6);
  for (std::uint32_t m = 0; m < f.size(); ++m)
    f.set_phase(m, rng.flip(0.45) ? Phase::kOne : Phase::kZero);
  Aig a(6);
  a.add_output(a.build(factor(minimize(f))));
  const Netlist nl = map_aig(a, CellLibrary::generic70());
  const Aig b = netlist_to_aig(nl);
  EXPECT_TRUE(check_equivalence(a, b).equivalent);
}

TEST(Equivalence, FindsCounterexample) {
  Aig a(3);
  a.add_output(a.make_and(a.input_literal(0), a.input_literal(1)));
  Aig b(3);
  b.add_output(b.make_or(b.input_literal(0), b.input_literal(1)));
  const EquivalenceResult r = check_equivalence(a, b);
  ASSERT_FALSE(r.equivalent);
  // On the counterexample the two outputs must actually differ.
  const AigSimulator sa(a);
  const AigSimulator sb(b);
  EXPECT_NE(sa.literal_value(a.outputs()[0], r.counterexample),
            sb.literal_value(b.outputs()[0], r.counterexample));
  EXPECT_EQ(r.failing_output, 0u);
}

TEST(Equivalence, PerOutputCheck) {
  // Output 0 agrees, output 1 differs: the miter names output 1, and the
  // counterexample tells the two output-1 functions apart.
  Aig a(2);
  a.add_output(a.make_and(a.input_literal(0), a.input_literal(1)));
  a.add_output(a.input_literal(0));
  Aig b(2);
  b.add_output(b.make_and(b.input_literal(0), b.input_literal(1)));
  b.add_output(b.input_literal(1));  // differs
  const EquivalenceResult r = check_equivalence(a, b);
  ASSERT_FALSE(r.equivalent);
  EXPECT_EQ(r.failing_output, 1u);
  EXPECT_NE(r.counterexample & 1u, (r.counterexample >> 1) & 1u);
  Aig c(2);
  c.add_output(c.make_and(c.input_literal(1), c.input_literal(0)));
  c.add_output(c.input_literal(0));
  EXPECT_TRUE(check_equivalence(a, c).equivalent);
}

TEST(Equivalence, InterfaceMismatchThrows) {
  Aig a(2);
  a.add_output(aiglit::kTrue);
  Aig b(3);
  b.add_output(aiglit::kTrue);
  EXPECT_THROW(check_equivalence(a, b), std::invalid_argument);
}

TEST(Unmap, RoundTripThroughMapping) {
  Rng rng(523);
  for (int trial = 0; trial < 8; ++trial) {
    TernaryTruthTable f(5);
    for (std::uint32_t m = 0; m < f.size(); ++m)
      f.set_phase(m, rng.flip(0.5) ? Phase::kOne : Phase::kZero);
    Aig a(5);
    a.add_output(a.build(factor(minimize(f))));
    for (const MapObjective obj : {MapObjective::kArea, MapObjective::kDelay}) {
      const Netlist nl = map_aig(a, CellLibrary::generic70(), {obj});
      const Aig b = netlist_to_aig(nl);
      const AigSimulator sim(b);
      EXPECT_EQ(sim.output_table(0), AigSimulator(a).output_table(0))
          << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace rdc
