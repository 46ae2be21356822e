#include "reliability/error_rate.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/bitvec.hpp"
#include "common/simd.hpp"
#include "obs/counters.hpp"
#include "reliability/estimator_util.hpp"
#include "tt/neighbor_stats.hpp"

namespace rdc {

namespace reliability_detail {

void check_error_rate_pair(const TernaryTruthTable& implementation,
                           const TernaryTruthTable& spec, const char* where) {
  if (!implementation.fully_specified())
    throw std::invalid_argument(std::string(where) +
                                ": implementation must be completely "
                                "specified");
  if (implementation.num_inputs() != spec.num_inputs())
    throw std::invalid_argument(std::string(where) +
                                ": input count mismatch");
}

double check_pin_weights(std::span<const double> pin_weights, unsigned n,
                         const char* where) {
  if (pin_weights.size() != n)
    throw std::invalid_argument(std::string(where) +
                                ": weight count mismatch");
  double total_weight = 0.0;
  for (const double w : pin_weights) {
    if (!std::isfinite(w))
      throw std::invalid_argument(std::string(where) + ": non-finite weight");
    if (w < 0.0)
      throw std::invalid_argument(std::string(where) + ": negative weight");
    total_weight += w;
  }
  if (total_weight <= 0.0)
    throw std::invalid_argument(std::string(where) +
                                ": weights sum to zero");
  return total_weight;
}

}  // namespace reliability_detail

using reliability_detail::check_error_rate_pair;
using reliability_detail::check_pin_weights;

double exact_error_rate(const TernaryTruthTable& implementation,
                        const TernaryTruthTable& spec) {
  check_error_rate_pair(implementation, spec, "exact_error_rate");
  obs::count(obs::Counter::kErrorRateCalls);
  obs::count(obs::Counter::kErrorRateMinterms, spec.size());

  // Word-parallel form: an event (care source m, pin j) propagates iff the
  // implementation's value changes when pin j flips, so per pin the
  // propagating sources are exactly the set bits of
  // (on ^ neighbor_j(on)) & care. The fused dispatch kernel counts them
  // without materializing the permuted set.
  const unsigned n = spec.num_inputs();
  const BitVec& on = implementation.on_bits();
  const BitVec care = spec.care_bits();
  std::uint64_t propagating = 0;
  for (unsigned j = 0; j < n; ++j)
    propagating +=
        simd::popcount_shiftxor_and(on.data(), care.data(), on.num_words(), j);
  return static_cast<double>(propagating) /
         (static_cast<double>(n) * static_cast<double>(spec.size()));
}

double exact_error_rate_scalar(const TernaryTruthTable& implementation,
                               const TernaryTruthTable& spec) {
  check_error_rate_pair(implementation, spec, "exact_error_rate");

  const unsigned n = spec.num_inputs();
  std::uint64_t propagating = 0;
  for (std::uint32_t m = 0; m < spec.size(); ++m) {
    if (!spec.is_care(m)) continue;  // DC vectors never occur as sources
    const bool value = implementation.is_on(m);
    for (unsigned j = 0; j < n; ++j)
      if (implementation.is_on(flip_bit(m, j)) != value) ++propagating;
  }
  return static_cast<double>(propagating) /
         (static_cast<double>(n) * static_cast<double>(spec.size()));
}

double exact_error_rate(const IncompleteSpec& implementation,
                        const IncompleteSpec& spec) {
  if (implementation.num_outputs() != spec.num_outputs())
    throw std::invalid_argument("exact_error_rate: output count mismatch");
  if (spec.num_outputs() == 0) return 0.0;
  double sum = 0.0;
  for (unsigned o = 0; o < spec.num_outputs(); ++o)
    sum += exact_error_rate(implementation.output(o), spec.output(o));
  return sum / spec.num_outputs();
}

double exact_error_rate_weighted(const TernaryTruthTable& implementation,
                                 const TernaryTruthTable& spec,
                                 std::span<const double> pin_weights) {
  check_error_rate_pair(implementation, spec, "exact_error_rate_weighted");
  const unsigned n = spec.num_inputs();
  const double total_weight =
      check_pin_weights(pin_weights, n, "exact_error_rate_weighted");

  // The weighted sum factors per pin: every propagating event of pin j
  // carries the same weight, so one popcount per pin suffices.
  const BitVec& on = implementation.on_bits();
  const BitVec care = spec.care_bits();
  double propagating = 0.0;
  for (unsigned j = 0; j < n; ++j)
    propagating += pin_weights[j] *
                   static_cast<double>(simd::popcount_shiftxor_and(
                       on.data(), care.data(), on.num_words(), j));
  return propagating / (total_weight * static_cast<double>(spec.size()));
}

double exact_error_rate_weighted_scalar(const TernaryTruthTable& implementation,
                                        const TernaryTruthTable& spec,
                                        std::span<const double> pin_weights) {
  check_error_rate_pair(implementation, spec, "exact_error_rate_weighted");
  const unsigned n = spec.num_inputs();
  const double total_weight =
      check_pin_weights(pin_weights, n, "exact_error_rate_weighted");

  // Tally integer propagation counts per pin, then combine with the weights
  // in a fixed order so the result is bit-identical to the word-parallel
  // kernel (which also weights exact per-pin counts).
  std::vector<std::uint64_t> per_pin(n, 0);
  for (std::uint32_t m = 0; m < spec.size(); ++m) {
    if (!spec.is_care(m)) continue;
    const bool value = implementation.is_on(m);
    for (unsigned j = 0; j < n; ++j)
      if (implementation.is_on(flip_bit(m, j)) != value) ++per_pin[j];
  }
  double propagating = 0.0;
  for (unsigned j = 0; j < n; ++j)
    propagating += pin_weights[j] * static_cast<double>(per_pin[j]);
  return propagating / (total_weight * static_cast<double>(spec.size()));
}

double exact_error_rate_weighted(const IncompleteSpec& implementation,
                                 const IncompleteSpec& spec,
                                 std::span<const double> pin_weights) {
  if (implementation.num_outputs() != spec.num_outputs())
    throw std::invalid_argument(
        "exact_error_rate_weighted: output count mismatch");
  if (spec.num_outputs() == 0) return 0.0;
  double sum = 0.0;
  for (unsigned o = 0; o < spec.num_outputs(); ++o)
    sum += exact_error_rate_weighted(implementation.output(o),
                                     spec.output(o), pin_weights);
  return sum / spec.num_outputs();
}

ErrorBounds exact_error_bounds(const TernaryTruthTable& spec) {
  const unsigned n = spec.num_inputs();
  const NeighborTable neighbors(spec);
  ErrorBounds bounds;
  bounds.total_events =
      static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(spec.size());
  for (std::uint32_t m = 0; m < spec.size(); ++m) {
    const NeighborCounts& c = neighbors.at(m);
    switch (spec.phase(m)) {
      case Phase::kOne:
        // Ordered (on, off) events; the symmetric (off, on) events are
        // counted when the loop reaches the off-set minterm, yielding the
        // paper's factor of 2 over unordered pairs.
        bounds.base_error += c.off;
        break;
      case Phase::kZero:
        bounds.base_error += c.on;
        break;
      case Phase::kDc:
        // A DC assigned to 1 receives errors from its off-set neighbors and
        // vice versa; DC-DC pairs contribute nothing because neither side
        // ever occurs as a source.
        bounds.min_dc_error += std::min(c.on, c.off);
        bounds.max_dc_error += std::max(c.on, c.off);
        break;
    }
  }
  return bounds;
}

RateBounds exact_error_bounds(const IncompleteSpec& spec) {
  RateBounds rates;
  if (spec.num_outputs() == 0) return rates;
  for (const auto& f : spec.outputs()) {
    const ErrorBounds b = exact_error_bounds(f);
    rates.min += b.min_rate();
    rates.max += b.max_rate();
  }
  rates.min /= spec.num_outputs();
  rates.max /= spec.num_outputs();
  return rates;
}

}  // namespace rdc
