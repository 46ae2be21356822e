// Variable reordering for the BDD oracle (oracles/bdd.hpp).
//
// The manager keeps a fixed global order (variable index == level), so
// reordering is expressed functionally: swap_variables/permute_variables
// return a *new function* whose variable v plays the role the permutation
// assigns, and sifting-style search (reduce_nodes_greedy) hill-climbs over
// adjacent transpositions to shrink the represented function's node count.
#pragma once

#include <utility>
#include <vector>

#include "oracles/bdd.hpp"

namespace rdc::oracle {

/// g(x_i <- x_j, x_j <- x_i): the function with the two variables' roles
/// exchanged.
BddEdge swap_variables(BddManager& mgr, BddEdge f, unsigned i, unsigned j);

/// g such that g(y) = f(x) with y_{perm[v]} = x_v — i.e. variable v of f
/// moves to position perm[v]. `perm` must be a permutation of 0..n-1.
BddEdge permute_variables(BddManager& mgr, BddEdge f,
                          const std::vector<unsigned>& perm);

struct ReorderResult {
  BddEdge function;
  std::vector<unsigned> permutation;  ///< applied permutation (old -> new)
  std::size_t nodes_before = 0;
  std::size_t nodes_after = 0;
};

/// Greedy adjacent-transposition search (sifting-lite): repeatedly applies
/// the adjacent swap that most reduces node count until a fixed point, up
/// to `max_passes` sweeps.
ReorderResult reduce_nodes_greedy(BddManager& mgr, BddEdge f,
                                  unsigned max_passes = 4);

}  // namespace rdc::oracle
