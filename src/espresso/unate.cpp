#include "espresso/unate.hpp"

#include <algorithm>
#include <bit>

namespace rdc {

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
    minterms += c.minterm_count(n);
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
  return is_tautology(cover.cofactor(lo)) && is_tautology(cover.cofactor(hi));
}

bool cover_contains_cube(const Cover& cover, const Cube& c) {
  if (cover.single_cube_contains(c)) return true;
  return is_tautology(cover.cofactor(c));
}

}  // namespace rdc
