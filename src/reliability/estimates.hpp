// Analytical min-max reliability estimates (Section 5 of the paper).
//
// Two estimators for the achievable [min, max] error-rate interval of an
// incompletely specified function, both avoiding per-minterm enumeration:
//
//  * Signal-probability-based: models the neighbor-sum Y_i of a minterm as a
//    Gaussian with moments derived from (f0, f1, fDC) and evaluates
//    E[min/max((n-Y)/2, (n+Y)/2)] in closed form.
//  * Border-based: uses the counts of 0-, 1- and DC-borders (pairs of
//    1-Hamming-distance minterms of different phase) and a Poisson model of
//    a DC minterm's on-set-neighbor count.
//
// All results are rates on the same n * 2^n scale as error_rate.hpp, so they
// are directly comparable with the exact bounds (Table 3 of the paper).
#pragma once

#include <cstdint>

#include "tt/incomplete_spec.hpp"
#include "tt/ternary_function.hpp"

namespace rdc {

/// Ordered-pair border counts b0, b1, bDC of Section 5.
struct BorderCounts {
  std::uint64_t b0 = 0;   ///< (off-set, not-off-set) neighbor pairs
  std::uint64_t b1 = 0;   ///< (on-set, not-on-set) neighbor pairs
  std::uint64_t bdc = 0;  ///< (DC-set, not-DC-set) neighbor pairs
};

/// Exact border counts by truth-table scan (O(n * 2^n)).
BorderCounts count_borders(const TernaryTruthTable& f);

/// An estimated [min, max] error-rate interval.
struct EstimatedBounds {
  double min = 0.0;
  double max = 0.0;
};

/// Signal-probability (Gaussian) estimate for one output.
EstimatedBounds signal_probability_bounds(const TernaryTruthTable& f);

/// Border-count (Poisson) estimate for one output.
EstimatedBounds border_bounds(const TernaryTruthTable& f);

/// Mean-across-outputs versions for multi-output specs.
EstimatedBounds signal_probability_bounds(const IncompleteSpec& spec);
EstimatedBounds border_bounds(const IncompleteSpec& spec);

/// Count-based entry points: the same estimators fed from aggregate
/// statistics (signal probabilities, border counts) instead of a truth
/// table. The truth-table overloads above forward to these.
EstimatedBounds signal_probability_bounds_from_stats(unsigned num_inputs,
                                                     double f0, double f1,
                                                     double fdc);
EstimatedBounds border_bounds_from_stats(unsigned num_inputs, double f0,
                                         double f1, double fdc,
                                         const BorderCounts& borders);

}  // namespace rdc
