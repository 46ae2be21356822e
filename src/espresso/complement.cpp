#include "espresso/complement.hpp"

#include "espresso/unate.hpp"

namespace rdc {

Cover complement_cube(const Cube& c, unsigned num_inputs) {
  // !(l_1 & l_2 & ... ) = !l_1 + l_1 !l_2 + l_1 l_2 !l_3 + ...
  // The disjoint form keeps the result irredundant by construction.
  Cover result(num_inputs);
  Cube prefix = Cube::full(num_inputs);
  for (unsigned j = 0; j < num_inputs; ++j) {
    const bool allow0 = test_bit(c.mask0, j);
    const bool allow1 = test_bit(c.mask1, j);
    if (allow0 && allow1) continue;  // variable absent from the cube
    const bool literal_value = allow1;
    result.add(prefix.restricted(j, !literal_value));
    prefix = prefix.restricted(j, literal_value);
  }
  return result;
}

Cover complement(const Cover& cover) {
  const unsigned n = cover.num_inputs();
  if (cover.empty_cover()) {
    Cover full(n);
    full.add(Cube::full(n));
    return full;
  }
  const Cube full_cube = Cube::full(n);
  for (const Cube& c : cover.cubes())
    if (c == full_cube) return Cover(n);

  if (cover.size() == 1) return complement_cube(cover.cube(0), n);

  // Recurse on the most binate variable; if unate, any active variable
  // still splits the problem and guarantees progress.
  const PolarityCounts counts(cover);
  unsigned split = 0;
  if (const auto binate = most_binate_variable(counts, n); binate) {
    split = *binate;
  } else {
    unsigned best_activity = 0;
    for (unsigned j = 0; j < n; ++j) {
      const unsigned activity = counts.negative[j] + counts.positive[j];
      if (activity > best_activity) {
        best_activity = activity;
        split = j;
      }
    }
  }

  const Cube lo = full_cube.restricted(split, false);
  const Cube hi = full_cube.restricted(split, true);
  const Cover comp_lo = complement(cover.cofactor(lo));
  const Cover comp_hi = complement(cover.cofactor(hi));

  // No containment cleanup: both halves are containment-free, their cubes
  // leave `split` free (it is inactive in the cofactors), and a lo cube and
  // a hi cube differ in `split`, so neither contains the other.
  Cover result(n);
  result.cubes().reserve(comp_lo.size() + comp_hi.size());
  for (const Cube& c : comp_lo.cubes()) result.add(c.intersect(lo));
  for (const Cube& c : comp_hi.cubes()) result.add(c.intersect(hi));
  return result;
}

}  // namespace rdc
