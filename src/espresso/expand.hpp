// EXPAND step of the ESPRESSO loop: enlarge each cube to a prime implicant
// against the off-set, discarding cubes that become covered along the way.
#pragma once

#include "common/bitvec.hpp"
#include "pla/cover.hpp"

namespace rdc {

/// Expands every cube of `on` against `off`, the function's OFF minterms as
/// a 2^n bitset (disjoint from the ON- and DC-sets). Returns a prime cover
/// of the same function, usually with fewer cubes. Cubes with the most
/// literals go first; a cube an earlier prime contains is skipped. When the
/// cubes of `on` are distinct minterms, the gains come from their bitset
/// instead of a peer scan, with the same result.
Cover expand(const Cover& on, const BitVec& off);

/// Expands a single cube to a prime implicant against the OFF minterms
/// `off`. Each step raises the fixed variable j whose raise misses `off`
/// and brings the most cubes of `peers` into the cube (those whose miss set
/// is exactly {j}), ties to the lowest variable, until no raise misses
/// `off`. Raising j is blocked iff the cube with literal j flipped meets
/// `off`; that half is what a raise adds, so the minterms of the final cube
/// are walked once, whatever the number of raises. A cube that already
/// holds an OFF minterm is returned unchanged. `peers` has the cube's width.
Cube expand_cube(const Cube& c, const BitVec& off, const Cover& peers);

}  // namespace rdc
