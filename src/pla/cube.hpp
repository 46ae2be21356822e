// Ternary cubes in positional (two-bit-per-variable) notation.
//
// A cube over n <= 20 inputs stores two bit masks: `mask0` (the cube admits
// x_j = 0) and `mask1` (the cube admits x_j = 1). Per variable:
//   mask0=1, mask1=0  -> literal  !x_j
//   mask0=0, mask1=1  -> literal   x_j
//   mask0=1, mask1=1  -> variable absent (don't care)
//   mask0=0, mask1=0  -> empty cube (contradiction)
// This is the representation used by ESPRESSO and makes intersection and
// containment pure bit arithmetic. for_each_cube_word() bridges a cube to the
// packed 2^n-minterm bitsets (BitVec) the truth tables are made of.
#pragma once

#include <cstdint>
#include <string>

#include "common/bits.hpp"
#include "common/bitvec.hpp"

namespace rdc {

/// Mask of the variable bits of a cube over n <= 32 inputs.
constexpr std::uint32_t var_mask(unsigned n) {
  return n >= 32 ? ~0u : (1u << n) - 1;
}

struct Cube {
  std::uint32_t mask0 = 0;
  std::uint32_t mask1 = 0;

  /// The universal cube (no literals) over n variables.
  static Cube full(unsigned n) {
    return Cube{var_mask(n), var_mask(n)};
  }

  /// The cube containing exactly one minterm.
  static Cube minterm(std::uint32_t m, unsigned n) {
    return Cube{~m & var_mask(n), m};
  }

  /// Parses an espresso-style input part, e.g. "1-0". Throws on bad chars.
  static Cube parse(const std::string& text);

  bool operator==(const Cube&) const = default;

  /// True iff some variable admits neither value.
  bool empty(unsigned n) const {
    return ((mask0 | mask1) & var_mask(n)) != var_mask(n);
  }

  /// Number of literals (variables fixed to a single value).
  unsigned literal_count(unsigned n) const {
    return static_cast<unsigned>(std::popcount((mask0 ^ mask1) & var_mask(n)));
  }

  bool contains_minterm(std::uint32_t m, unsigned n) const {
    // Every variable set to 1 in m must be admitted by mask1, every variable
    // set to 0 by mask0.
    return (m & var_mask(n) & ~mask1) == 0 && (~m & var_mask(n) & ~mask0) == 0;
  }

  /// True iff this cube contains `other` (other implies this).
  bool contains(const Cube& other) const {
    return (other.mask0 & ~mask0) == 0 && (other.mask1 & ~mask1) == 0;
  }

  /// Intersection (may be empty).
  Cube intersect(const Cube& other) const {
    return Cube{mask0 & other.mask0, mask1 & other.mask1};
  }

  /// Raise variable j to don't-care.
  Cube expanded(unsigned j) const {
    return Cube{mask0 | (1u << j), mask1 | (1u << j)};
  }

  /// Restrict variable j to value v (0/1).
  Cube restricted(unsigned j, bool v) const {
    Cube c = *this;
    if (v)
      c.mask0 &= ~(1u << j);
    else
      c.mask1 &= ~(1u << j);
    return c;
  }

  /// Espresso-style text, e.g. "1-0" (variable 0 first).
  std::string to_string(unsigned n) const;
};

/// Walks the minterms of cube `c` over n <= 20 inputs as words of a packed
/// 2^n-minterm bitset (bit b of word w is minterm 64*w + b, as in BitVec):
/// calls `fn(w, bits)` for every word w holding minterms of `c`, in
/// increasing w, with `bits` the cube's minterms in that word. The in-word
/// pattern comes from the low six inputs; the words are the submasks of the
/// cube's free inputs >= 6 over its fixed ones. No bit past minterm 2^n - 1
/// is set, and an empty cube visits no word. Stops as soon as `fn` returns
/// false, and then returns false.
template <typename Fn>
bool for_each_cube_word(const Cube& c, unsigned n, Fn fn) {
  if (c.empty(n)) return true;
  std::uint64_t bits = sim_word_mask(n);
  for (unsigned j = 0; j < n && j < 6; ++j) {
    if (!test_bit(c.mask1, j)) bits &= ~input_pattern(j, 0);
    if (!test_bit(c.mask0, j)) bits &= input_pattern(j, 0);
  }
  const std::uint32_t vars = var_mask(n);
  const std::uint32_t high_ones = (c.mask1 & ~c.mask0 & vars) >> 6;
  const std::uint32_t high_free = (c.mask0 & c.mask1 & vars) >> 6;
  std::uint32_t sub = 0;
  do {
    if (!fn(std::size_t{high_ones | sub}, bits)) return false;
    sub = (sub - high_free) & high_free;  // next submask, ascending
  } while (sub != 0);
  return true;
}

/// Adds the minterms of `c` to `set`, a bitset of 2^n minterms.
inline void paint_cube(BitVec& set, const Cube& c, unsigned n) {
  std::uint64_t* words = set.data();
  for_each_cube_word(c, n, [&](std::size_t w, std::uint64_t bits) {
    words[w] |= bits;
    return true;
  });
}

}  // namespace rdc
