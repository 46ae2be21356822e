// Ternary cubes in positional (two-bit-per-variable) notation.
//
// A cube over n <= 20 inputs stores two bit masks: `mask0` (the cube admits
// x_j = 0) and `mask1` (the cube admits x_j = 1). Per variable:
//   mask0=1, mask1=0  -> literal  !x_j
//   mask0=0, mask1=1  -> literal   x_j
//   mask0=1, mask1=1  -> variable absent (don't care)
//   mask0=0, mask1=0  -> empty cube (contradiction)
// This is the representation used by ESPRESSO and makes intersection,
// containment and cofactoring pure bit arithmetic.
#pragma once

#include <cstdint>
#include <string>

#include "common/bits.hpp"

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

  /// Number of minterms contained: 2^(n - literals).
  std::uint32_t minterm_count(unsigned n) const {
    return empty(n) ? 0 : (1u << (n - literal_count(n)));
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

  /// True iff the intersection is non-empty.
  bool intersects(const Cube& other, unsigned n) const {
    return !intersect(other).empty(n);
  }

  /// Distance: number of variables where the two cubes conflict (empty part).
  unsigned conflict_count(const Cube& other, unsigned n) const {
    const Cube x = intersect(other);
    return static_cast<unsigned>(
        std::popcount(~(x.mask0 | x.mask1) & var_mask(n)));
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

}  // namespace rdc
