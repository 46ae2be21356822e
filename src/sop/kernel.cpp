#include "sop/kernel.hpp"

#include <bit>
#include <vector>

#include "sop/division.hpp"

namespace rdc {

LiteralCounts literal_counts(const Cover& f) {
  LiteralCounts counts{};
  const std::uint32_t vars = var_mask(f.num_inputs());
  for (const Cube& c : f.cubes())
    for (std::uint32_t fixed = (c.mask0 ^ c.mask1) & vars; fixed;
         fixed &= fixed - 1) {
      const auto var = static_cast<unsigned>(std::countr_zero(fixed));
      ++counts[2 * var + (test_bit(c.mask1, var) ? 1 : 0)];
    }
  return counts;
}

namespace {

void kernels_rec(const Cover& g, unsigned min_literal,
                 std::vector<Kernel>& out, const Cube& cokernel,
                 std::size_t max_kernels) {
  if (out.size() >= max_kernels) return;
  const unsigned n = g.num_inputs();
  out.push_back({g, cokernel});

  // Literals are enumerated as 2*var + polarity to impose the canonical
  // order that prevents duplicate kernels.
  const LiteralCounts counts = literal_counts(g);
  for (unsigned lit = min_literal; lit < 2 * n; ++lit) {
    const unsigned var = lit / 2;
    const bool positive = lit % 2;
    if (counts[lit] < 2) continue;

    Cover quotient = divide_by_literal(g, var, positive).quotient;
    const Cube cc = common_cube(quotient);
    // Skip if the common cube contains a literal smaller than `lit` — that
    // kernel is found via the smaller literal's branch.
    bool smaller = false;
    for (unsigned l2 = 0; l2 < lit && !smaller; ++l2)
      smaller = cube_has_literal(cc, l2 / 2, l2 % 2);
    if (smaller) continue;

    Cover cube_free(quotient.num_inputs());
    for (const Cube& c : quotient.cubes()) cube_free.add(cube_quotient(c, cc));

    Cube new_cokernel = cokernel.intersect(cc);
    new_cokernel = new_cokernel.restricted(var, positive);
    kernels_rec(cube_free, lit + 1, out, new_cokernel, max_kernels);
  }
}

}  // namespace

Cube common_cube(const Cover& f) {
  const unsigned n = f.num_inputs();
  if (f.empty_cover()) return Cube::full(n);
  // The common cube's admitted sets are the union of the cubes' sets per
  // variable — a variable stays a literal only if *every* cube fixes it the
  // same way.
  Cube cc{0, 0};
  for (const Cube& c : f.cubes()) {
    cc.mask0 |= c.mask0;
    cc.mask1 |= c.mask1;
  }
  return cc;
}

Cover make_cube_free(const Cover& f) {
  const Cube cc = common_cube(f);
  Cover result(f.num_inputs());
  for (const Cube& c : f.cubes()) result.add(cube_quotient(c, cc));
  return result;
}

std::vector<Kernel> all_kernels(const Cover& f, std::size_t max_kernels) {
  std::vector<Kernel> kernels;
  if (f.empty_cover()) return kernels;
  const Cover cube_free = make_cube_free(f);
  if (cube_free.size() < 2) return kernels;  // a cube has no kernels
  kernels_rec(cube_free, 0, kernels, Cube::full(f.num_inputs()), max_kernels);
  return kernels;
}

Cover level0_kernel(const Cover& f) {
  const unsigned n = f.num_inputs();
  Cover current = make_cube_free(f);
  std::vector<Cube>& cubes = current.cubes();
  while (cubes.size() >= 2) {
    // The first literal, in 2*var + polarity order, in two cubes or more.
    const LiteralCounts counts = literal_counts(current);
    unsigned lit = 0;
    while (lit < 2 * n && counts[lit] < 2) ++lit;
    if (lit == 2 * n) break;
    const unsigned var = lit / 2;
    const bool positive = lit % 2;
    // current = make_cube_free(current / literal), in place.
    std::erase_if(cubes, [&](const Cube& c) {
      return !cube_has_literal(c, var, positive);
    });
    for (Cube& c : cubes) c = c.expanded(var);
    const Cube cc = common_cube(current);
    for (Cube& c : cubes) c = cube_quotient(c, cc);
  }
  return current;
}

}  // namespace rdc
