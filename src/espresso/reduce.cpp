#include "espresso/reduce.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "espresso/minterm_counts.hpp"
#include "exec/budget.hpp"

namespace rdc {

Cover reduce(const Cover& on, const BitVec& dc) {
  const unsigned n = on.num_inputs();
  const std::uint32_t vars = var_mask(n);

  // Classic maximal-reduction rule: c is replaced by the smallest cube
  // keeping exactly the minterms of c that nothing else covers — c ∩ the
  // supercube of its minterms that are neither DC nor held by another live
  // cube. Processing is sequential — each reduction sees its predecessors'
  // reduced forms — ordered largest-cube-first as in espresso.
  std::vector<Cube> cubes = on.cubes();
  std::vector<std::size_t> order(cubes.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cubes[a].literal_count(n) <
                            cubes[b].literal_count(n);
                   });

  std::vector<bool> dropped(cubes.size(), false);
  MintermCounts counts(cubes, n);
  for (std::size_t idx : order) {
    exec::checkpoint();  // per-cube budget poll (DESIGN.md §10)
    const Cube c = cubes[idx];
    // Supercube of the sole minterms: the OR of their in-word positions
    // gives the inputs below 6, their word indices the inputs above.
    std::uint64_t low = 0;
    std::uint32_t high1 = 0;
    std::uint32_t high0 = 0;
    for_each_cube_word(c, n, [&](std::size_t w, std::uint64_t bits) {
      if (const std::uint64_t sole = counts.sole(w, bits, dc); sole != 0) {
        low |= sole;
        high1 |= static_cast<std::uint32_t>(w);
        high0 |= ~static_cast<std::uint32_t>(w);
      }
      return true;
    });
    if (low == 0) {
      dropped[idx] = true;  // everything in the cube is covered elsewhere
      counts.remove(c);
      continue;
    }
    Cube super{(high0 << 6) & vars, (high1 << 6) & vars};
    for (unsigned j = 0; j < n && j < 6; ++j) {
      if (low & input_pattern(j, 0)) super.mask1 |= 1u << j;
      if (low & ~input_pattern(j, 0)) super.mask0 |= 1u << j;
    }
    cubes[idx] = c.intersect(super);
    if (cubes[idx] != c) {
      counts.remove(c);
      counts.add(cubes[idx]);
    }
  }

  Cover result(n);
  for (std::size_t i = 0; i < cubes.size(); ++i)
    if (!dropped[i]) result.add(cubes[i]);
  return result;
}

}  // namespace rdc
