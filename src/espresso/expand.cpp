#include "espresso/expand.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <vector>

#include "exec/budget.hpp"

namespace rdc {

Cube expand_cube(const Cube& c, const Cover& off, const Cover& peers) {
  const unsigned n = off.num_inputs();
  const std::uint32_t vars = var_mask(n);
  std::array<std::size_t, 32> gain{};
  Cube current = c;
  while (true) {
    const std::uint32_t fixed = (current.mask0 ^ current.mask1) & vars;
    if (fixed == 0) break;
    // Raising j makes the cube meet an off-cube q iff q's conflict set
    // with the current cube (the variables whose parts do not meet) is
    // empty or exactly {j}. An off-cube with an empty part meets nothing.
    std::uint32_t blocked = 0;
    for (const Cube& q : off.cubes()) {
      if (((q.mask0 | q.mask1) & vars) != vars) continue;
      const std::uint32_t conflict =
          ~((current.mask0 & q.mask0) | (current.mask1 & q.mask1)) & vars;
      if ((conflict & (conflict - 1)) == 0)
        blocked |= conflict != 0 ? conflict : vars;
    }
    const std::uint32_t candidates = fixed & ~blocked;
    if (candidates == 0) break;
    // Gain of raising j: peers that only j keeps out of the current cube.
    gain.fill(0);
    for (const Cube& p : peers.cubes()) {
      const std::uint32_t miss =
          (p.mask0 & ~current.mask0) | (p.mask1 & ~current.mask1);
      if (miss != 0 && (miss & (miss - 1)) == 0)
        ++gain[std::countr_zero(miss)];
    }
    // Largest gain wins; ties go to the lowest variable.
    unsigned best = std::countr_zero(candidates);
    for (std::uint32_t rest = candidates & (candidates - 1); rest != 0;
         rest &= rest - 1) {
      const unsigned j = std::countr_zero(rest);
      if (gain[j] > gain[best]) best = j;
    }
    current = current.expanded(best);
  }
  return current;
}

Cover expand(const Cover& on, const Cover& off) {
  const unsigned n = on.num_inputs();

  // Process small cubes first: they have the most to gain, and the cubes
  // they absorb never need their own expansion.
  std::vector<std::size_t> order(on.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return on.cube(a).literal_count(n) > on.cube(b).literal_count(n);
  });

  Cover result(n);
  std::vector<bool> covered(on.size(), false);
  for (std::size_t idx : order) {
    if (covered[idx]) continue;
    exec::checkpoint();  // per-cube budget poll (DESIGN.md §10)
    const Cube prime = expand_cube(on.cube(idx), off, on);
    result.add(prime);
    for (std::size_t i = 0; i < on.size(); ++i)
      if (!covered[i] && prime.contains(on.cube(i))) covered[i] = true;
  }
  result.remove_single_cube_contained();
  return result;
}

}  // namespace rdc
