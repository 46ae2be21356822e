// Kernel / co-kernel extraction (Brayton-McMullen), used to find good
// multi-cube divisors during factoring.
#pragma once

#include <vector>

#include "pla/cover.hpp"

namespace rdc {

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
