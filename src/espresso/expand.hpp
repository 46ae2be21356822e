// EXPAND step of the ESPRESSO loop: enlarge each cube to a prime implicant
// against the off-set, discarding cubes that become covered along the way.
#pragma once

#include "common/bitvec.hpp"
#include "pla/cover.hpp"

namespace rdc {

/// Expands every cube of `on` against `off`, the function's OFF minterms as
/// a 2^n bitset (disjoint from the ON- and DC-sets). Returns a prime cover
/// of the same function, usually with fewer cubes.
Cover expand(const Cover& on, const BitVec& off);

/// Expands a single cube to a prime implicant against the OFF minterms
/// `off`, greedily raising one variable at a time (preferring raises that
/// cover the most not-yet-covered cubes of `peers`, whose width is the
/// cube's). A cube that already holds an OFF minterm is returned unchanged.
Cube expand_cube(const Cube& c, const BitVec& off, const Cover& peers);

}  // namespace rdc
