// EXPAND by peer scan, kept as a test oracle: each raise re-tests every
// candidate's flipped cube against OFF and scans the peers for gains, and
// each new prime is tested against every uncovered cube. The library walks
// each prime's minterms once and reads gains off the ON bitset when the
// peers are distinct minterms; it must return the same cubes in the same
// order.
#pragma once

#include "common/bitvec.hpp"
#include "pla/cover.hpp"

namespace rdc::oracle {

/// True iff `c` holds a minterm of `set`, a bitset of 2^n minterms.
inline bool cube_meets(const BitVec& set, const Cube& c, unsigned n) {
  const std::uint64_t* words = set.data();
  return !for_each_cube_word(c, n, [&](std::size_t w, std::uint64_t bits) {
    return (words[w] & bits) == 0;
  });
}

/// expand_cube's contract: raise the fixed variable whose raise misses
/// `off` and brings the most peers (cubes of `peers` whose miss set is
/// exactly that variable) into the cube, ties to the lowest variable, until
/// no raise misses `off`. A cube that meets `off` is returned unchanged.
Cube expand_cube_scan(const Cube& c, const BitVec& off, const Cover& peers);

/// expand's contract: cubes with the most literals first (stable), each
/// expanded with `on` as peers unless an earlier prime contains it; then
/// single-cube containment.
Cover expand_scan(const Cover& on, const BitVec& off);

}  // namespace rdc::oracle
