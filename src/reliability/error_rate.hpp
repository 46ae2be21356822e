// Exact input-error-rate computation (Sections 2 and 5 of the paper).
//
// Error model: single-bit flips on input pins, all pins equally likely.
// An error event is an ordered pair (source minterm x, flipped pin j); the
// source must lie in the *care set of the original specification* — vectors
// from the DC space "can never occur in practice" (paper, Sec. 2.1). The
// event propagates at an output iff the implementation evaluates differently
// on x and x ^ (1 << j).
//
// All rates are normalized by n * 2^n (the number of possible events); the
// paper's headline numbers are ratios of such rates, so the normalization
// cancels there, and this choice makes the Section-5 closed forms for
// base/min-dc/max-dc error consistent with Table 3's magnitudes.
//
// The other fault models (k-bit flips, weighted pins, stuck-at) live behind
// reliability::FaultModel (fault_model.hpp); bitflip(1) calls this kernel.
#pragma once

#include <cstdint>

#include "tt/incomplete_spec.hpp"
#include "tt/ternary_function.hpp"

namespace rdc {

/// Exact error rate of a completely specified implementation against the
/// care set of specification `spec`. Word-parallel: per pin j the
/// propagating sources are popcount((on ^ neighbor_j(on)) & care).
double exact_error_rate(const TernaryTruthTable& implementation,
                        const TernaryTruthTable& spec);

/// Mean per-output exact error rate of a multi-output implementation.
double exact_error_rate(const IncompleteSpec& implementation,
                        const IncompleteSpec& spec);

/// Exact error-event decomposition of Section 5.
struct ErrorBounds {
  /// Events between care minterms of opposite phase (2x unordered pairs);
  /// independent of any DC assignment.
  std::uint64_t base_error = 0;
  /// Additional events under the reliability-optimal DC assignment.
  std::uint64_t min_dc_error = 0;
  /// Additional events under the reliability-worst DC assignment.
  std::uint64_t max_dc_error = 0;
  /// n * 2^n, the normalizer that turns the counts into rates.
  std::uint64_t total_events = 0;

  double min_rate() const {
    return static_cast<double>(base_error + min_dc_error) /
           static_cast<double>(total_events);
  }
  double max_rate() const {
    return static_cast<double>(base_error + max_dc_error) /
           static_cast<double>(total_events);
  }
};

/// Computes the exact min/max achievable error rates of an incompletely
/// specified function over all possible DC assignments.
ErrorBounds exact_error_bounds(const TernaryTruthTable& spec);

/// Mean per-output bounds, expressed as rates.
struct RateBounds {
  double min = 0.0;
  double max = 0.0;
};
RateBounds exact_error_bounds(const IncompleteSpec& spec);

}  // namespace rdc
