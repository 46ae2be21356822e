// Symbolic (BDD-based) computation of the paper's aggregate Hamming-distance
// metrics, mirroring how the authors used CUDD: the on-, off- and DC-sets
// are held as characteristic functions and all pair counts reduce to
// sat-counts of intersections with 1-bit-shifted sets. Kept as a test
// oracle: an independent cross-check of the library's enumerative
// complexity factor, border counts and base error.
#pragma once

#include "oracles/bdd.hpp"
#include "reliability/estimates.hpp"
#include "tt/ternary_function.hpp"

namespace rdc::oracle {

/// The three phase sets of an incompletely specified function as BDDs.
struct SymbolicSpec {
  BddEdge on;
  BddEdge off;
  BddEdge dc;
};

/// Builds the symbolic form of a truth table inside `mgr`.
SymbolicSpec to_symbolic(BddManager& mgr, const TernaryTruthTable& f);

/// Number of ordered pairs (x, x ^ e_j) with x in `a` and x ^ e_j in `b`,
/// summed over all variables j. Each sat-count is exact (doubles are exact
/// for counts below 2^53).
double symbolic_neighbor_pairs(BddManager& mgr, BddEdge a, BddEdge b);

/// Normalized complexity factor C^f computed symbolically.
double symbolic_complexity_factor(BddManager& mgr, const SymbolicSpec& spec);

/// Border counts b0 / b1 / bDC computed symbolically.
BorderCounts symbolic_borders(BddManager& mgr, const SymbolicSpec& spec);

/// Base-error count (2x unordered on/off neighbor pairs).
double symbolic_base_error(BddManager& mgr, const SymbolicSpec& spec);

}  // namespace rdc::oracle
