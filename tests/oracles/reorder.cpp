#include "oracles/reorder.hpp"

#include <numeric>
#include <stdexcept>

namespace rdc::oracle {

BddEdge swap_variables(BddManager& mgr, BddEdge f, unsigned i, unsigned j) {
  if (i == j) return f;
  // f'(.., x_i = a, .., x_j = b, ..) = f(.., x_i = b, .., x_j = a, ..).
  const BddEdge f00 = mgr.restrict_var(mgr.restrict_var(f, i, false), j, false);
  const BddEdge f01 = mgr.restrict_var(mgr.restrict_var(f, i, false), j, true);
  const BddEdge f10 = mgr.restrict_var(mgr.restrict_var(f, i, true), j, false);
  const BddEdge f11 = mgr.restrict_var(mgr.restrict_var(f, i, true), j, true);
  // f'|i=1,j=1 = f11; f'|i=1,j=0 = f01; f'|i=0,j=1 = f10; f'|i=0,j=0 = f00.
  return mgr.ite(mgr.var(i), mgr.ite(mgr.var(j), f11, f01),
                 mgr.ite(mgr.var(j), f10, f00));
}

BddEdge permute_variables(BddManager& mgr, BddEdge f,
                          const std::vector<unsigned>& perm) {
  const unsigned n = mgr.num_vars();
  if (perm.size() != n)
    throw std::invalid_argument("permute_variables: wrong permutation size");
  // Decompose into transpositions by selection placement: at[i] tracks the
  // original variable whose role currently sits at index i, cur[v] its
  // inverse.
  std::vector<unsigned> inverse(n);
  for (unsigned v = 0; v < n; ++v) {
    if (perm[v] >= n)
      throw std::invalid_argument("permute_variables: index out of range");
    inverse[perm[v]] = v;
  }
  std::vector<unsigned> at(n);
  std::vector<unsigned> cur(n);
  std::iota(at.begin(), at.end(), 0u);
  std::iota(cur.begin(), cur.end(), 0u);

  BddEdge result = f;
  for (unsigned target = 0; target < n; ++target) {
    const unsigned wanted = inverse[target];
    if (at[target] == wanted) continue;
    const unsigned idx = cur[wanted];
    result = swap_variables(mgr, result, target, idx);
    const unsigned displaced = at[target];
    at[target] = wanted;
    at[idx] = displaced;
    cur[wanted] = target;
    cur[displaced] = idx;
  }
  return result;
}

ReorderResult reduce_nodes_greedy(BddManager& mgr, BddEdge f,
                                  unsigned max_passes) {
  ReorderResult result;
  result.function = f;
  result.permutation.resize(mgr.num_vars());
  std::iota(result.permutation.begin(), result.permutation.end(), 0u);
  result.nodes_before = mgr.node_count(f);

  std::size_t current = result.nodes_before;
  for (unsigned pass = 0; pass < max_passes; ++pass) {
    bool improved = false;
    for (unsigned v = 0; v + 1 < mgr.num_vars(); ++v) {
      const BddEdge candidate =
          swap_variables(mgr, result.function, v, v + 1);
      const std::size_t count = mgr.node_count(candidate);
      if (count < current) {
        current = count;
        result.function = candidate;
        // The roles of positions v and v+1 exchanged: update the
        // permutation (old variable -> current position).
        for (auto& p : result.permutation) {
          if (p == v)
            p = v + 1;
          else if (p == v + 1)
            p = v;
        }
        improved = true;
      }
    }
    if (!improved) break;
  }
  result.nodes_after = current;
  return result;
}

}  // namespace rdc::oracle
