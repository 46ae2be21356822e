// Algebraic (weak) division of cube covers — the workhorse of multi-level
// factoring (SIS-style), used to turn minimized SOPs into factored forms
// before AIG construction.
#pragma once

#include "pla/cover.hpp"

namespace rdc {

struct DivisionResult {
  Cover quotient;
  Cover remainder;
};

/// True iff cube `c` holds the literal (var, positive).
inline bool cube_has_literal(const Cube& c, unsigned var, bool positive) {
  const bool has0 = test_bit(c.mask0, var);
  const bool has1 = test_bit(c.mask1, var);
  return has0 != has1 && has1 == positive;
}

/// True iff cube `d` algebraically divides cube `c` (every literal of d
/// appears in c with the same polarity).
bool cube_divides(const Cube& d, const Cube& c);

/// c with the literals of d removed (requires cube_divides(d, c)).
Cube cube_quotient(const Cube& c, const Cube& d);

/// Weak division F / D: the largest Q with F = Q*D + R (algebraic product).
DivisionResult weak_divide(const Cover& f, const Cover& divisor);

/// Division by a single literal (fast path).
DivisionResult divide_by_literal(const Cover& f, unsigned var, bool positive);

/// Algebraic product Q * D (concatenating literal sets; cubes that would
/// collapse — opposite literals — are dropped).
Cover algebraic_product(const Cover& q, const Cover& d);

}  // namespace rdc
