#include "oracles/bdd_ops.hpp"

namespace rdc::oracle {

SymbolicSpec to_symbolic(BddManager& mgr, const TernaryTruthTable& f) {
  SymbolicSpec spec;
  spec.on = mgr.from_phase(f, Phase::kOne);
  spec.dc = mgr.from_phase(f, Phase::kDc);
  spec.off = mgr.bdd_and(!spec.on, !spec.dc);
  return spec;
}

double symbolic_neighbor_pairs(BddManager& mgr, BddEdge a, BddEdge b) {
  double total = 0.0;
  for (unsigned j = 0; j < mgr.num_vars(); ++j) {
    // x in a and (x ^ e_j) in b  <=>  x in a ∧ flip_j(b).
    const BddEdge shifted = mgr.flip_var(b, j);
    total += mgr.sat_count(mgr.bdd_and(a, shifted));
  }
  return total;
}

double symbolic_complexity_factor(BddManager& mgr, const SymbolicSpec& spec) {
  const double same = symbolic_neighbor_pairs(mgr, spec.on, spec.on) +
                      symbolic_neighbor_pairs(mgr, spec.off, spec.off) +
                      symbolic_neighbor_pairs(mgr, spec.dc, spec.dc);
  const double n = mgr.num_vars();
  const double size = static_cast<double>(1u << mgr.num_vars());
  return same / (n * size);
}

BorderCounts symbolic_borders(BddManager& mgr, const SymbolicSpec& spec) {
  BorderCounts borders;
  borders.b0 = static_cast<std::uint64_t>(
      symbolic_neighbor_pairs(mgr, spec.off, !spec.off));
  borders.b1 = static_cast<std::uint64_t>(
      symbolic_neighbor_pairs(mgr, spec.on, !spec.on));
  borders.bdc = static_cast<std::uint64_t>(
      symbolic_neighbor_pairs(mgr, spec.dc, !spec.dc));
  return borders;
}

double symbolic_base_error(BddManager& mgr, const SymbolicSpec& spec) {
  return symbolic_neighbor_pairs(mgr, spec.on, spec.off) +
         symbolic_neighbor_pairs(mgr, spec.off, spec.on);
}

}  // namespace rdc::oracle
