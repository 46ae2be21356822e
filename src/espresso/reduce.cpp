#include "espresso/reduce.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "espresso/complement.hpp"
#include "exec/budget.hpp"

namespace rdc {

Cube supercube(const Cover& cover) {
  Cube super{0, 0};
  for (const Cube& c : cover.cubes()) {
    super.mask0 |= c.mask0;
    super.mask1 |= c.mask1;
  }
  return super;
}

Cover reduce(const Cover& on, const Cover& dc) {
  const unsigned n = on.num_inputs();

  // Classic maximal-reduction rule: c is replaced by
  //   c ∩ supercube(complement((F \ {c} ∪ D) cofactored by c)),
  // i.e. the smallest cube keeping exactly the minterms of c that nothing
  // else covers. Processing is sequential — each reduction sees its
  // predecessors' reduced forms — ordered largest-cube-first as in espresso.
  std::vector<Cube> cubes = on.cubes();
  std::vector<std::size_t> order(cubes.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cubes[a].literal_count(n) <
                            cubes[b].literal_count(n);
                   });

  std::vector<bool> dropped(cubes.size(), false);
  Cover in_cube(n);  // reused: keeps its capacity across candidates
  for (std::size_t idx : order) {
    exec::checkpoint();  // per-cube budget poll (DESIGN.md §10)
    // The other live cubes, then the DC cubes, cofactored against c.
    const Cube c = cubes[idx];
    in_cube.cubes().clear();
    for (std::size_t i = 0; i < cubes.size(); ++i)
      if (i != idx && !dropped[i]) in_cube.add_cofactor(cubes[i], c);
    for (const Cube& q : dc.cubes()) in_cube.add_cofactor(q, c);

    const Cover uncovered = complement(in_cube);
    if (uncovered.empty_cover()) {
      dropped[idx] = true;  // everything in the cube is covered elsewhere
      continue;
    }
    cubes[idx] = c.intersect(supercube(uncovered));
  }

  Cover result(n);
  for (std::size_t i = 0; i < cubes.size(); ++i)
    if (!dropped[i]) result.add(cubes[i]);
  return result;
}

}  // namespace rdc
