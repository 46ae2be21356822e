#include "sop/division.hpp"

#include <algorithm>
#include <cstdint>

namespace rdc {

bool cube_divides(const Cube& d, const Cube& c) {
  // d's admitted-value sets must be supersets of c's on every variable d
  // fixes; that is exactly cube containment c ⊆ d, plus the requirement
  // that c actually fixes each variable d fixes (no half-free overlap).
  return d.contains(c);
}

Cube cube_quotient(const Cube& c, const Cube& d) {
  // Raise every variable that d fixes.
  const std::uint32_t fixed = d.mask0 ^ d.mask1;
  return Cube{c.mask0 | fixed, c.mask1 | fixed};
}

DivisionResult divide_by_literal(const Cover& f, unsigned var, bool positive) {
  const unsigned n = f.num_inputs();
  DivisionResult result{Cover(n), Cover(n)};
  std::size_t with = 0;
  for (const Cube& c : f.cubes()) with += cube_has_literal(c, var, positive);
  result.quotient.cubes().reserve(with);
  result.remainder.cubes().reserve(f.size() - with);
  for (const Cube& c : f.cubes()) {
    if (cube_has_literal(c, var, positive))
      result.quotient.add(c.expanded(var));
    else
      result.remainder.add(c);
  }
  return result;
}

DivisionResult weak_divide(const Cover& f, const Cover& divisor) {
  const unsigned n = f.num_inputs();
  DivisionResult result{Cover(n), Cover(n)};
  if (divisor.empty_cover()) {
    result.remainder = f;
    return result;
  }

  // The covers are small (factoring divides 3 to 23 cubes by 2 on the
  // Table-1 circuits), so every membership question is a linear scan.
  const auto contains = [](const Cover& cover, const Cube& c) {
    return std::find(cover.cubes().begin(), cover.cubes().end(), c) !=
           cover.cubes().end();
  };

  // Quotient = intersection over divisor cubes d of { c/d : d | c }.
  // Computed against the first divisor cube, then filtered by the rest,
  // in F's cube order, each quotient cube once.
  for (const Cube& c : f.cubes()) {
    if (!cube_divides(divisor.cube(0), c)) continue;
    const Cube q = cube_quotient(c, divisor.cube(0));
    bool in_all = true;
    for (std::size_t i = 1; i < divisor.size() && in_all; ++i)
      in_all = contains(f, q.intersect(divisor.cube(i)));
    if (in_all && !contains(result.quotient, q)) result.quotient.add(q);
  }

  // Remainder: cubes of F not produced by Q * D, in F's order.
  const Cover product = algebraic_product(result.quotient, divisor);
  for (const Cube& c : f.cubes())
    if (!contains(product, c)) result.remainder.add(c);
  return result;
}

Cover algebraic_product(const Cover& q, const Cover& d) {
  const unsigned n = q.num_inputs();
  Cover result(n);
  for (const Cube& a : q.cubes())
    for (const Cube& b : d.cubes()) {
      const Cube prod = a.intersect(b);
      if (!prod.empty(n)) result.add(prod);
    }
  return result;
}

}  // namespace rdc
