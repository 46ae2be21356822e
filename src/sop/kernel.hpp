// Kernel / co-kernel extraction (Brayton-McMullen), used to find good
// multi-cube divisors during factoring.
#pragma once

#include <array>
#include <vector>

#include "pla/cover.hpp"

namespace rdc {

/// Number of cubes of a cover holding each literal, indexed 2 * var +
/// positive (the kernel search's literal order).
using LiteralCounts = std::array<unsigned, 64>;

/// Counts every cube's literals in one pass over its fixed variables.
LiteralCounts literal_counts(const Cover& f);

/// A kernel of a cover together with the co-kernel cube that exposes it.
struct Kernel {
  Cover kernel;
  Cube cokernel;
};

/// Largest cube dividing every cube of the cover (the "common cube");
/// the full cube when the cover is empty.
Cube common_cube(const Cover& f);

/// f divided by its common cube.
Cover make_cube_free(const Cover& f);

/// All kernels of `f` (including f itself if cube-free), capped at
/// `max_kernels` to bound the recursion on pathological covers.
std::vector<Kernel> all_kernels(const Cover& f, std::size_t max_kernels = 256);

/// One level-0 kernel (a kernel with no kernels but itself), found greedily.
Cover level0_kernel(const Cover& f);

}  // namespace rdc
