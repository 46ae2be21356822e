// Scalar error-rate, neighbour-count and complexity-factor references,
// kept as test oracles: one bit lookup per (minterm, pin) pair, no word
// parallelism, no SIMD. The fault models (reliability/fault_model.hpp),
// exact_error_rate, NeighborTable and complexity_factor compute the same
// integer counts word-parallel and combine them in the same order, so
// every oracle here agrees with its library kernel bit for bit. The inputs
// are assumed valid (completely specified implementation, matching input
// counts, one positive-sum weight per pin, 1 <= k <= n).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tt/neighbor_stats.hpp"
#include "tt/ternary_function.hpp"

namespace rdc::oracle {

/// The paper's single-flip rate: propagating (care source, pin) events
/// over n * 2^n.
double error_rate(const TernaryTruthTable& implementation,
                  const TernaryTruthTable& spec);

/// Single flips with per-pin weights: sum_j w_j * (propagating pin-j
/// events) over W * 2^n, with W the weight sum.
double error_rate_weighted(const TernaryTruthTable& implementation,
                           const TernaryTruthTable& spec,
                           std::span<const double> pin_weights);

/// k simultaneous flips: propagating (care source, k-subset) events over
/// C(n, k) * 2^n.
double error_rate_kbit(const TernaryTruthTable& implementation,
                       const TernaryTruthTable& spec, unsigned k);

/// Stuck-at input faults: the mean over the 2n faults (j, v) of the
/// fraction of care sources in the halfspace bit_j == !v whose value
/// differs from their pin-j neighbour's.
double error_rate_stuckat(const TernaryTruthTable& implementation,
                          const TernaryTruthTable& spec);

/// Per-minterm neighbour phase counts, indexed by minterm.
std::vector<NeighborCounts> neighbor_counts(const TernaryTruthTable& f);

/// Normalized complexity factor C^f from the scalar neighbour counts.
double complexity_factor(const TernaryTruthTable& f);

}  // namespace rdc::oracle
