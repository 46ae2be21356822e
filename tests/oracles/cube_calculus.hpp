// Cube calculus by the unate recursive paradigm, kept as a test oracle:
// cofactors, tautology checking, binate variable selection, cover
// containment and complementation, following the classic formulation of
// Brayton et al. The library's ESPRESSO asks the same questions of packed
// minterm bitsets instead; the reference kernels in
// test_espresso_kernels.cpp are built from these.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "pla/cover.hpp"

namespace rdc::oracle {

/// True iff cubes `a` and `b` over n inputs share a minterm.
inline bool intersects(const Cube& a, const Cube& b, unsigned n) {
  return !a.intersect(b).empty(n);
}

/// Number of minterms cube `c` over n inputs contains: 2^(n - literals).
inline std::uint32_t minterm_count(const Cube& c, unsigned n) {
  return c.empty(n) ? 0 : (1u << (n - c.literal_count(n)));
}

/// Appends the cofactor of cube `q` with respect to `c` — q with the
/// variables fixed by c raised — if q meets c: one cube of cofactor().
void add_cofactor(Cover& out, const Cube& q, const Cube& c);

/// Cofactor of the cover with respect to cube `c` (Shannon/generalized):
/// keeps cubes intersecting c, raising variables fixed by c.
Cover cofactor(const Cover& cover, const Cube& c);

/// Smallest single cube containing every cube of `cover`; the empty cube
/// (all-zero masks) if the cover is empty.
Cube supercube(const Cover& cover);

/// True iff some cube of `cover` contains cube `c` entirely.
bool single_cube_contains(const Cover& cover, const Cube& c);

/// Per-variable literal counts of a cover, gathered in one pass over it.
struct PolarityCounts {
  std::array<unsigned, 32> negative{};  ///< cubes with literal !x_j
  std::array<unsigned, 32> positive{};  ///< cubes with literal x_j
  explicit PolarityCounts(const Cover& cover);
  bool binate(unsigned j) const { return negative[j] > 0 && positive[j] > 0; }
};

/// Picks the most binate variable (maximizing min(neg, pos), ties by total
/// activity then index); returns nullopt if the cover is unate.
std::optional<unsigned> most_binate_variable(const PolarityCounts& counts,
                                             unsigned num_inputs);
std::optional<unsigned> most_binate_variable(const Cover& cover);

/// True iff the cover is a tautology (covers every minterm).
bool is_tautology(const Cover& cover);

/// True iff cube `c` is covered by `cover` (i.e. cover cofactored against c
/// is a tautology).
bool cover_contains_cube(const Cover& cover, const Cube& c);

/// Complement of a single cube by De Morgan expansion.
Cover complement_cube(const Cube& c, unsigned num_inputs);

/// Returns a cover of the complement of `cover` (over the same variables).
/// The result is containment-free (no cube contains another, no duplicate
/// cubes) but not minimized.
Cover complement(const Cover& cover);

}  // namespace rdc::oracle
