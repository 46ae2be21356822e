// IRREDUNDANT step: remove cubes that are covered by the rest of the cover
// plus the don't-care set.
#pragma once

#include "common/bitvec.hpp"
#include "pla/cover.hpp"

namespace rdc {

/// Returns an irredundant subset of `on` (non-empty cubes) that still
/// covers `on` relative to the DC minterms `dc`, a 2^n bitset: no remaining
/// cube can be dropped without uncovering part of the on-set.
Cover irredundant(const Cover& on, const BitVec& dc);

}  // namespace rdc
