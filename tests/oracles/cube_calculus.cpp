#include "oracles/cube_calculus.hpp"

#include <algorithm>
#include <bit>

namespace rdc::oracle {

void add_cofactor(Cover& out, const Cube& q, const Cube& c) {
  if (!intersects(q, c, out.num_inputs())) return;
  const std::uint32_t fixed = c.mask0 ^ c.mask1;
  out.add(Cube{q.mask0 | fixed, q.mask1 | fixed});
}

Cover cofactor(const Cover& cover, const Cube& c) {
  // Variables fixed by c get raised to don't-care in the surviving cubes;
  // cubes that conflict with c on a fixed variable drop out.
  Cover result(cover.num_inputs());
  for (const Cube& q : cover.cubes()) add_cofactor(result, q, c);
  return result;
}

Cube supercube(const Cover& cover) {
  Cube super{0, 0};
  for (const Cube& c : cover.cubes()) {
    super.mask0 |= c.mask0;
    super.mask1 |= c.mask1;
  }
  return super;
}

bool single_cube_contains(const Cover& cover, const Cube& target) {
  for (const Cube& c : cover.cubes())
    if (c.contains(target)) return true;
  return false;
}

PolarityCounts::PolarityCounts(const Cover& cover) {
  const std::uint32_t vars = var_mask(cover.num_inputs());
  for (const Cube& c : cover.cubes()) {
    for (std::uint32_t neg = c.mask0 & ~c.mask1 & vars; neg != 0;
         neg &= neg - 1)
      ++negative[std::countr_zero(neg)];
    for (std::uint32_t pos = c.mask1 & ~c.mask0 & vars; pos != 0;
         pos &= pos - 1)
      ++positive[std::countr_zero(pos)];
  }
}

std::optional<unsigned> most_binate_variable(const PolarityCounts& counts,
                                             unsigned num_inputs) {
  std::optional<unsigned> best;
  unsigned best_min = 0;
  unsigned best_total = 0;
  for (unsigned j = 0; j < num_inputs; ++j) {
    if (!counts.binate(j)) continue;
    const unsigned lo = std::min(counts.negative[j], counts.positive[j]);
    const unsigned total = counts.negative[j] + counts.positive[j];
    if (!best || lo > best_min || (lo == best_min && total > best_total)) {
      best = j;
      best_min = lo;
      best_total = total;
    }
  }
  return best;
}

std::optional<unsigned> most_binate_variable(const Cover& cover) {
  return most_binate_variable(PolarityCounts(cover), cover.num_inputs());
}

bool is_tautology(const Cover& cover) {
  if (cover.empty_cover()) return false;
  const unsigned n = cover.num_inputs();

  const Cube full = Cube::full(n);
  std::uint64_t minterms = 0;
  for (const Cube& c : cover.cubes()) {
    if (c == full) return true;
    minterms += minterm_count(c, n);
  }
  // Cheap necessary condition: the cubes must jointly have enough minterms.
  if (minterms < num_minterms(n)) return false;

  const std::optional<unsigned> j = most_binate_variable(cover);
  if (!j) {
    // Unate cover: tautology iff it contains the universal cube, which was
    // already checked above.
    return false;
  }
  const Cube lo = full.restricted(*j, false);
  const Cube hi = full.restricted(*j, true);
  return is_tautology(cofactor(cover, lo)) && is_tautology(cofactor(cover, hi));
}

bool cover_contains_cube(const Cover& cover, const Cube& c) {
  if (single_cube_contains(cover, c)) return true;
  return is_tautology(cofactor(cover, c));
}


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
  const Cover comp_lo = complement(cofactor(cover, lo));
  const Cover comp_hi = complement(cofactor(cover, hi));

  // No containment cleanup: both halves are containment-free, their cubes
  // leave `split` free (it is inactive in the cofactors), and a lo cube and
  // a hi cube differ in `split`, so neither contains the other.
  Cover result(n);
  result.cubes().reserve(comp_lo.size() + comp_hi.size());
  for (const Cube& c : comp_lo.cubes()) result.add(c.intersect(lo));
  for (const Cube& c : comp_hi.cubes()) result.add(c.intersect(hi));
  return result;
}

}  // namespace rdc::oracle
