#include "reliability/error_rate.hpp"

#include <algorithm>
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

}  // namespace reliability_detail

using reliability_detail::check_error_rate_pair;

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
