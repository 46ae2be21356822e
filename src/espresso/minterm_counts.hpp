// Per-minterm cover counts, internal to the ESPRESSO kernels: IRREDUNDANT
// and REDUCE ask "is this minterm DC or covered by another live cube?" of
// them, one array lookup per minterm.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/bitvec.hpp"
#include "pla/cube.hpp"

namespace rdc {

/// For every minterm of a 2^n lattice, the number of live cubes holding
/// it. 32-bit: an antichain of primes through one minterm can exceed
/// 65 535 at n = 20.
class MintermCounts {
 public:
  MintermCounts(const std::vector<Cube>& cubes, unsigned n)
      : n_(n), counts_(num_minterms(n), 0) {
    for (const Cube& c : cubes) add(c);
  }

  /// Counts cube `c` in (out) at every minterm it holds.
  void add(const Cube& c) { update(c, 1); }
  void remove(const Cube& c) { update(c, ~0u); }  // wraps: adds -1

  /// The minterms among `bits` (word w) that are not DC and that exactly
  /// one live cube holds. Called with the bits of a live cube, these are
  /// the minterms no other live cube or DC covers.
  std::uint64_t sole(std::size_t w, std::uint64_t bits,
                     const BitVec& dc) const {
    const std::uint32_t* counts = counts_.data() + (w << 6);
    std::uint64_t out = 0;
    for (std::uint64_t need = bits & ~dc.word(w); need != 0; need &= need - 1)
      if (counts[std::countr_zero(need)] == 1) out |= need & -need;
    return out;
  }

 private:
  void update(const Cube& c, std::uint32_t delta) {
    for_each_cube_word(c, n_, [&](std::size_t w, std::uint64_t bits) {
      std::uint32_t* counts = counts_.data() + (w << 6);
      if (bits == ~0ull) {
        for (unsigned b = 0; b < 64; ++b) counts[b] += delta;
      } else {
        for (; bits != 0; bits &= bits - 1)
          counts[std::countr_zero(bits)] += delta;
      }
      return true;
    });
  }

  unsigned n_;
  std::vector<std::uint32_t> counts_;
};

}  // namespace rdc
