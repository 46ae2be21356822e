// The local complexity factor LC^f by its definition (Section 4 of the
// paper), kept as a test oracle: one minterm at a time, from the neighbor
// table's per-minterm counts. lcf_assign computes the same values from one
// per-call array of same-phase counts and must decide as this does.
#pragma once

#include <cstdint>

#include "tt/neighbor_stats.hpp"
#include "tt/ternary_function.hpp"

namespace rdc::oracle {

/// Number of neighbors of `minterm` that share its phase in `f` (the
/// summand of the complexity factor). `neighbors` is the table of `f`.
unsigned same_phase_neighbors(const NeighborTable& neighbors,
                              const TernaryTruthTable& f,
                              std::uint32_t minterm);

/// Normalized local complexity factor LC^f(x_i) in [0, 1]:
///   (1/n^2) |{(x_j, x_k) : D(x_i,x_j)=1, D(x_j,x_k)=1, f(x_j)=f(x_k)}|.
/// Taken literally from the paper: x_k ranges over all n neighbors of x_j,
/// including x_i itself.
double local_complexity_factor(const TernaryTruthTable& f,
                               const NeighborTable& neighbors,
                               std::uint32_t minterm);

/// Convenience overload building the neighbor table internally (O(n·2^n)).
double local_complexity_factor(const TernaryTruthTable& f,
                               std::uint32_t minterm);

}  // namespace rdc::oracle
