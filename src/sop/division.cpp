#include "sop/division.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

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

  // F's cubes sorted as (mask0, mask1) words, each with its index in F:
  // the membership questions below are binary searches.
  struct Entry {
    std::uint64_t key;
    std::uint32_t index;
  };
  const auto key_of = [](const Cube& c) {
    return (std::uint64_t{c.mask0} << 32) | c.mask1;
  };
  const auto by_key = [](const Entry& a, const Entry& b) {
    return a.key < b.key;
  };
  std::vector<Entry> sorted(f.size());
  for (std::size_t i = 0; i < f.size(); ++i)
    sorted[i] = {key_of(f.cube(i)), static_cast<std::uint32_t>(i)};
  std::sort(sorted.begin(), sorted.end(), by_key);
  const auto matching = [&](const Cube& c) {
    return std::equal_range(sorted.begin(), sorted.end(),
                            Entry{key_of(c), 0}, by_key);
  };

  // Quotient = intersection over divisor cubes d of { c/d : d | c }.
  // Computed against the first divisor cube, then filtered by the rest,
  // in F's cube order, each quotient cube once.
  for (const Cube& c : f.cubes()) {
    if (!cube_divides(divisor.cube(0), c)) continue;
    const Cube q = cube_quotient(c, divisor.cube(0));
    bool in_all = true;
    for (std::size_t i = 1; i < divisor.size() && in_all; ++i) {
      const auto [lo, hi] = matching(q.intersect(divisor.cube(i)));
      in_all = lo != hi;
    }
    // Q is short (one entry per F cube at most), and a repeat needs two F
    // cubes with one quotient: so a linear scan.
    if (in_all && std::find(result.quotient.cubes().begin(),
                            result.quotient.cubes().end(),
                            q) == result.quotient.cubes().end())
      result.quotient.add(q);
  }

  // Remainder: cubes of F not produced by Q * D, in F's order.
  std::vector<bool> produced(f.size(), false);
  const Cover product = algebraic_product(result.quotient, divisor);
  for (const Cube& p : product.cubes()) {
    const auto [lo, hi] = matching(p);
    for (auto it = lo; it != hi; ++it) produced[it->index] = true;
  }
  for (std::size_t i = 0; i < f.size(); ++i)
    if (!produced[i]) result.remainder.add(f.cube(i));
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
