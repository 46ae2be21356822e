#include "sat/equivalence.hpp"

#include <stdexcept>

#include "sat/cnf.hpp"

namespace rdc {
namespace {

EquivalenceResult run_miter(const Aig& a, const Aig& b, unsigned first_output,
                            unsigned last_output) {
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
  for (unsigned o = first_output; o <= last_output; ++o) {
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

  EquivalenceResult result;
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
      result.failing_output = first_output + o;
      break;
    }
  return result;
}

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
  if (a.outputs().empty()) {
    EquivalenceResult result;
    result.equivalent = true;
    return result;
  }
  return run_miter(a, b, 0,
                   static_cast<unsigned>(a.outputs().size()) - 1);
}

EquivalenceResult check_output_equivalence(const Aig& a, const Aig& b,
                                           unsigned output) {
  check_interfaces(a, b);
  return run_miter(a, b, output, output);
}

}  // namespace rdc
