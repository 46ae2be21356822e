// Cover complementation by the unate recursive paradigm.
#pragma once

#include "pla/cover.hpp"

namespace rdc {

/// Returns a cover of the complement of `cover` (over the same variables).
/// The result is containment-free (no cube contains another, no duplicate
/// cubes) but not minimized.
Cover complement(const Cover& cover);

/// Complement of a single cube by De Morgan expansion.
Cover complement_cube(const Cube& c, unsigned num_inputs);

}  // namespace rdc
