#include "oracles/error_rate.hpp"

#include <bit>

namespace rdc::oracle {
namespace {

/// Propagating events of pin j per pin: care sources m whose
/// implementation value differs at m ^ e_j.
std::vector<std::uint64_t> propagating_per_pin(
    const TernaryTruthTable& implementation, const TernaryTruthTable& spec) {
  std::vector<std::uint64_t> per_pin(spec.num_inputs(), 0);
  for (std::uint32_t m = 0; m < spec.size(); ++m) {
    if (!spec.is_care(m)) continue;  // DC vectors never occur as sources
    const bool value = implementation.is_on(m);
    for (unsigned j = 0; j < spec.num_inputs(); ++j)
      if (implementation.is_on(flip_bit(m, j)) != value) ++per_pin[j];
  }
  return per_pin;
}

}  // namespace

double error_rate(const TernaryTruthTable& implementation,
                  const TernaryTruthTable& spec) {
  std::uint64_t propagating = 0;
  for (const std::uint64_t count : propagating_per_pin(implementation, spec))
    propagating += count;
  return static_cast<double>(propagating) /
         (static_cast<double>(spec.num_inputs()) *
          static_cast<double>(spec.size()));
}

double error_rate_weighted(const TernaryTruthTable& implementation,
                           const TernaryTruthTable& spec,
                           std::span<const double> pin_weights) {
  const std::vector<std::uint64_t> per_pin =
      propagating_per_pin(implementation, spec);
  double total_weight = 0.0;
  for (const double w : pin_weights) total_weight += w;
  double propagating = 0.0;
  for (unsigned j = 0; j < spec.num_inputs(); ++j)
    propagating += pin_weights[j] * static_cast<double>(per_pin[j]);
  return propagating / (total_weight * static_cast<double>(spec.size()));
}

double error_rate_kbit(const TernaryTruthTable& implementation,
                       const TernaryTruthTable& spec, unsigned k) {
  std::vector<std::uint32_t> masks;
  for (std::uint32_t mask = 0; mask < spec.size(); ++mask)
    if (static_cast<unsigned>(std::popcount(mask)) == k) masks.push_back(mask);
  std::uint64_t propagating = 0;
  for (std::uint32_t m = 0; m < spec.size(); ++m) {
    if (!spec.is_care(m)) continue;
    const bool value = implementation.is_on(m);
    for (const std::uint32_t mask : masks)
      if (implementation.is_on(m ^ mask) != value) ++propagating;
  }
  return static_cast<double>(propagating) /
         (static_cast<double>(masks.size()) * static_cast<double>(spec.size()));
}

double error_rate_stuckat(const TernaryTruthTable& implementation,
                          const TernaryTruthTable& spec) {
  const unsigned n = spec.num_inputs();
  if (n == 0) return 0.0;
  double sum = 0.0;
  for (unsigned j = 0; j < n; ++j) {
    std::uint64_t care_count[2] = {0, 0};
    std::uint64_t prop_count[2] = {0, 0};
    for (std::uint32_t m = 0; m < spec.size(); ++m) {
      if (!spec.is_care(m)) continue;
      const unsigned b = (m >> j) & 1u;
      ++care_count[b];
      if (implementation.is_on(m) != implementation.is_on(flip_bit(m, j)))
        ++prop_count[b];
    }
    for (unsigned b = 0; b < 2; ++b)
      if (care_count[b] != 0)
        sum += static_cast<double>(prop_count[b]) /
               static_cast<double>(care_count[b]);
  }
  return sum / (2.0 * static_cast<double>(n));
}

std::vector<NeighborCounts> neighbor_counts(const TernaryTruthTable& f) {
  // One pass over all ordered neighbour pairs: classify each minterm once
  // and credit each of its n neighbours.
  std::vector<NeighborCounts> counts(f.size());
  for (std::uint32_t m = 0; m < f.size(); ++m) {
    const Phase p = f.phase(m);
    for (unsigned j = 0; j < f.num_inputs(); ++j) {
      NeighborCounts& c = counts[flip_bit(m, j)];
      switch (p) {
        case Phase::kOne: ++c.on; break;
        case Phase::kZero: ++c.off; break;
        case Phase::kDc: ++c.dc; break;
      }
    }
  }
  return counts;
}

double complexity_factor(const TernaryTruthTable& f) {
  const unsigned n = f.num_inputs();
  if (n == 0) return 0.0;
  const std::vector<NeighborCounts> counts = neighbor_counts(f);
  std::uint64_t same = 0;
  for (std::uint32_t m = 0; m < f.size(); ++m) {
    switch (f.phase(m)) {
      case Phase::kOne: same += counts[m].on; break;
      case Phase::kZero: same += counts[m].off; break;
      case Phase::kDc: same += counts[m].dc; break;
    }
  }
  return static_cast<double>(same) /
         (static_cast<double>(n) * static_cast<double>(f.size()));
}

}  // namespace rdc::oracle
