// Unate-recursive-paradigm primitives: tautology checking, binate variable
// selection, and cover containment tests.
//
// These are the kernels the ESPRESSO loop (expand / irredundant / reduce)
// is built from, following the classic formulation of Brayton et al.
#pragma once

#include <array>
#include <optional>

#include "pla/cover.hpp"

namespace rdc {

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

}  // namespace rdc
