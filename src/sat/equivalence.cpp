#include "sat/equivalence.hpp"

#include <stdexcept>

#include "sat/cnf.hpp"

namespace rdc {
namespace {

void check_interfaces(const Aig& a, const Aig& b) {
  if (a.num_inputs() != b.num_inputs())
    throw std::invalid_argument("equivalence: input count mismatch");
  if (a.outputs().size() != b.outputs().size())
    throw std::invalid_argument("equivalence: output count mismatch");
  if (a.num_inputs() > 31)
    throw std::invalid_argument(
        "equivalence: counterexample encoding limited to 31 inputs");
}

}  // namespace

EquivalenceResult check_equivalence(const Aig& a, const Aig& b) {
  check_interfaces(a, b);
  EquivalenceResult result;
  if (a.outputs().empty()) {
    result.equivalent = true;
    return result;
  }
  sat::Solver solver;
  std::vector<unsigned> inputs;
  inputs.reserve(a.num_inputs());
  for (unsigned i = 0; i < a.num_inputs(); ++i)
    inputs.push_back(solver.new_var());

  const std::vector<unsigned> vars_a = sat::encode_aig(a, inputs, solver);
  const std::vector<unsigned> vars_b = sat::encode_aig(b, inputs, solver);

  // Miter: OR over XORs of the output pairs must be satisfiable for a
  // mismatch. xor variable x_o <-> (out_a ^ out_b).
  sat::Clause any_diff;
  std::vector<unsigned> xor_vars;
  for (std::size_t o = 0; o < a.outputs().size(); ++o) {
    const sat::Lit oa = sat::aig_literal(vars_a, a.outputs()[o]);
    const sat::Lit ob = sat::aig_literal(vars_b, b.outputs()[o]);
    const unsigned x = solver.new_var();
    const sat::Lit lx(x, false);
    solver.add_clause({~lx, oa, ob});
    solver.add_clause({~lx, ~oa, ~ob});
    solver.add_clause({lx, oa, ~ob});
    solver.add_clause({lx, ~oa, ob});
    any_diff.push_back(lx);
    xor_vars.push_back(x);
  }
  solver.add_clause(any_diff);

  const sat::SolveResult outcome = solver.solve();
  if (outcome == sat::SolveResult::kUnsat) {
    result.equivalent = true;
    return result;
  }
  if (outcome == sat::SolveResult::kUnknown) {
    result.equivalent = false;  // fail safe: undecided is not a pass
    result.status = solver.last_status();
    result.status.with_context("equivalence");
    return result;
  }
  result.equivalent = false;
  for (unsigned i = 0; i < a.num_inputs(); ++i)
    if (solver.model_value(inputs[i]))
      result.counterexample |= 1u << i;
  for (unsigned o = 0; o < xor_vars.size(); ++o)
    if (solver.model_value(xor_vars[o])) {
      result.failing_output = o;
      break;
    }
  return result;
}

}  // namespace rdc
