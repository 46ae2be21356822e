#include "oracles/expand_scan.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <vector>

namespace rdc::oracle {

Cube expand_cube_scan(const Cube& c, const BitVec& off, const Cover& peers) {
  const unsigned n = peers.num_inputs();
  const std::uint32_t vars = var_mask(n);
  if (cube_meets(off, c, n)) return c;
  std::array<std::size_t, 32> gain{};
  std::uint32_t blocked = 0;
  // Peers that may still add gain: one the cube contains, or one that
  // misses on a blocked variable, never will.
  std::vector<Cube> live;
  const std::vector<Cube>* scan = &peers.cubes();
  Cube current = c;
  while (true) {
    const std::uint32_t fixed = (current.mask0 ^ current.mask1) & vars;
    if (fixed == 0) break;
    for (std::uint32_t rest = fixed & ~blocked; rest != 0; rest &= rest - 1) {
      const std::uint32_t bit = rest & -rest;
      if (cube_meets(off, Cube{current.mask0 ^ bit, current.mask1 ^ bit}, n))
        blocked |= bit;
    }
    const std::uint32_t candidates = fixed & ~blocked;
    if (candidates == 0) break;
    gain.fill(0);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < scan->size(); ++i) {
      const Cube p = (*scan)[i];
      const std::uint32_t miss =
          (p.mask0 & ~current.mask0) | (p.mask1 & ~current.mask1);
      if (miss == 0 || (miss & blocked) != 0) continue;
      if ((miss & (miss - 1)) == 0) ++gain[std::countr_zero(miss)];
      if (scan == &live)
        live[kept++] = p;
      else
        live.push_back(p);
    }
    if (scan == &live) live.resize(kept);
    scan = &live;
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

Cover expand_scan(const Cover& on, const BitVec& off) {
  const unsigned n = on.num_inputs();
  std::vector<std::size_t> order(on.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return on.cube(a).literal_count(n) > on.cube(b).literal_count(n);
  });
  Cover result(n);
  std::vector<bool> covered(on.size(), false);
  std::vector<std::size_t> uncovered(on.size());
  std::iota(uncovered.begin(), uncovered.end(), std::size_t{0});
  for (std::size_t idx : order) {
    if (covered[idx]) continue;
    const Cube prime = expand_cube_scan(on.cube(idx), off, on);
    result.add(prime);
    std::size_t kept = 0;
    for (std::size_t i : uncovered) {
      covered[i] = prime.contains(on.cube(i));
      if (!covered[i]) uncovered[kept++] = i;
    }
    uncovered.resize(kept);
  }
  result.remove_single_cube_contained();
  return result;
}

}  // namespace rdc::oracle
