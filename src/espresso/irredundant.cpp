#include "espresso/irredundant.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "espresso/unate.hpp"
#include "exec/budget.hpp"

namespace rdc {

Cover irredundant(const Cover& on, const Cover& dc) {
  const unsigned n = on.num_inputs();
  std::vector<bool> alive(on.size(), true);

  // Try to drop cubes in order of increasing size (small cubes are most
  // likely to be absorbed by their larger peers); a cube is droppable iff
  // the still-alive remainder plus the DC cover contains it.
  std::vector<std::size_t> order(on.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return on.cube(a).literal_count(n) >
                            on.cube(b).literal_count(n);
                   });

  Cover in_cube(n);  // reused: keeps its capacity across candidates
  for (std::size_t candidate : order) {
    exec::checkpoint();  // per-cube budget poll (DESIGN.md §10)
    // The other live cubes plus the DC cubes contain c iff one of them
    // does, or else iff their cofactor against c is a tautology.
    const Cube c = on.cube(candidate);
    in_cube.cubes().clear();
    bool contained = false;
    const auto add = [&](const Cube& q) {
      contained = contained || q.contains(c);
      if (!contained) in_cube.add_cofactor(q, c);
    };
    for (std::size_t i = 0; i < on.size(); ++i)
      if (alive[i] && i != candidate) add(on.cube(i));
    for (const Cube& q : dc.cubes()) add(q);
    if (contained || is_tautology(in_cube)) alive[candidate] = false;
  }

  Cover result(n);
  for (std::size_t i = 0; i < on.size(); ++i)
    if (alive[i]) result.add(on.cube(i));
  return result;
}

}  // namespace rdc
