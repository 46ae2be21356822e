// Complexity-factor metrics (Sections 2.2, 3.1 and 4 of the paper).
//
// The (normalized) complexity factor C^f of an n-input function is the
// fraction of ordered 1-Hamming-distance minterm pairs that share a phase
// (on/off/DC). It predicts minimal-SOP size (Fig. 2 of the paper): C^f = 1
// is a constant function, C^f = 0 (fully specified) is a parity function.
//
// The *local* complexity factor LC^f(x_i) restricts the count to pairs
// (x_j, x_k) with x_j a neighbor of x_i and x_k a neighbor of x_j; it drives
// the complexity-factor-based DC assignment of Section 4, which computes it
// in lcf_assign (reliability/assignment.hpp). Its per-minterm definition is
// a test oracle (tests/oracles/local_complexity.hpp).
#pragma once

#include <cstdint>

#include "tt/incomplete_spec.hpp"
#include "tt/ternary_function.hpp"

namespace rdc {

/// Ordered same-phase distance-1 pair count, the numerator of C^f:
/// |{(x_j, x_k) : D(x_j, x_k) = 1, f(x_j) = f(x_k)}|. Word-parallel
/// (one AND+popcount per pin and phase); also used to seed the synthetic
/// generator's annealing loop.
std::uint64_t same_phase_pairs(const TernaryTruthTable& f);

/// Normalized complexity factor C^f in [0, 1] (0 for 0-input functions).
double complexity_factor(const TernaryTruthTable& f);

/// Mean C^f across the outputs of a multi-output spec.
double complexity_factor(const IncompleteSpec& spec);

/// Expected complexity factor under random phase assignment with the
/// function's signal probabilities: E[C^f] = f0^2 + f1^2 + fDC^2.
double expected_complexity_factor(const TernaryTruthTable& f);
double expected_complexity_factor(const IncompleteSpec& spec);

}  // namespace rdc
