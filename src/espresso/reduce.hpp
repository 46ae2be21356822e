// REDUCE step: shrink each cube to the smallest cube that still covers the
// part of the on-set no other cube covers, opening room for the next EXPAND
// to escape local minima.
#pragma once

#include "common/bitvec.hpp"
#include "pla/cover.hpp"

namespace rdc {

/// Returns the reduced cover (same function relative to the DC minterms
/// `dc`, a 2^n bitset). Cubes that become entirely redundant are dropped.
Cover reduce(const Cover& on, const BitVec& dc);

}  // namespace rdc
