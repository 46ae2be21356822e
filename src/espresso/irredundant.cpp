#include "espresso/irredundant.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "espresso/minterm_counts.hpp"
#include "exec/budget.hpp"

namespace rdc {

Cover irredundant(const Cover& on, const BitVec& dc) {
  const unsigned n = on.num_inputs();
  std::vector<bool> alive(on.size(), true);

  // Try to drop cubes in order of increasing size (small cubes are most
  // likely to be absorbed by their larger peers); a cube is droppable iff
  // each of its minterms is DC or held by another live cube too.
  std::vector<std::size_t> order(on.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return on.cube(a).literal_count(n) >
                            on.cube(b).literal_count(n);
                   });

  MintermCounts counts(on.cubes(), n);
  for (std::size_t candidate : order) {
    exec::checkpoint();  // per-cube budget poll (DESIGN.md §10)
    const Cube& c = on.cube(candidate);
    const bool redundant =
        for_each_cube_word(c, n, [&](std::size_t w, std::uint64_t bits) {
          return counts.sole(w, bits, dc) == 0;
        });
    if (redundant) {
      alive[candidate] = false;
      counts.remove(c);
    }
  }

  Cover result(n);
  for (std::size_t i = 0; i < on.size(); ++i)
    if (alive[i]) result.add(on.cube(i));
  return result;
}

}  // namespace rdc
