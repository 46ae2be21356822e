// Helpers shared by the reliability estimators (error_rate.cpp,
// sampling.cpp, fault_model.cpp). Internal to src/reliability/.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "reliability/sampling.hpp"
#include "tt/ternary_function.hpp"

namespace rdc::reliability_detail {

/// Two-sided 95% normal quantile (z such that P(|Z| <= z) = 0.95).
inline constexpr double kZ95 = 1.959963984540054;

/// Budget-poll stride inside the sampling loops. One draw is a handful of
/// rng calls and bit probes, so polling every draw would dominate; every
/// 64th draw keeps the overhead invisible while a deadline or iteration
/// cap still interrupts a large `samples` request mid-loop.
inline constexpr std::uint64_t kCheckpointStride = 64;

/// A SampledRate with the clamped normal-approximation 95% interval.
SampledRate with_ci(double rate, double variance, std::uint64_t samples);

/// All n-bit masks with exactly k bits set (Gosper's hack).
std::vector<std::uint32_t> k_subsets(unsigned n, unsigned k);

/// Throws std::invalid_argument ("<where>: ...") unless `implementation`
/// is completely specified and has `spec`'s input count.
void check_error_rate_pair(const TernaryTruthTable& implementation,
                           const TernaryTruthTable& spec, const char* where);

/// Throws std::invalid_argument ("<where>: ...") unless there is one
/// finite, non-negative weight per pin with a positive sum; returns the sum.
double check_pin_weights(std::span<const double> pin_weights, unsigned n,
                         const char* where);

}  // namespace rdc::reliability_detail
