#include "reliability/complexity.hpp"

#include "common/bitvec.hpp"
#include "obs/counters.hpp"

namespace rdc {

std::uint64_t same_phase_pairs(const TernaryTruthTable& f) {
  // C^f counts ordered distance-1 pairs with equal phase. Per pin j the
  // pairs whose members both lie in a set S are the set bits of
  // S & neighbor_j(S); summing over the three sets and all pins counts
  // every ordered pair exactly once.
  const unsigned n = f.num_inputs();
  const BitVec& on = f.on_bits();
  const BitVec& dc = f.dc_bits();
  const BitVec off = f.off_bits();
  std::uint64_t same = 0;
  for (unsigned j = 0; j < n; ++j) {
    same += popcount_and(on, on.neighbor_shift(j));
    same += popcount_and(dc, dc.neighbor_shift(j));
    same += popcount_and(off, off.neighbor_shift(j));
  }
  return same;
}

double complexity_factor(const TernaryTruthTable& f) {
  const unsigned n = f.num_inputs();
  if (n == 0) return 0.0;
  obs::count(obs::Counter::kComplexityEvals);
  return static_cast<double>(same_phase_pairs(f)) /
         (static_cast<double>(n) * static_cast<double>(f.size()));
}

double complexity_factor(const IncompleteSpec& spec) {
  if (spec.num_outputs() == 0) return 0.0;
  double sum = 0.0;
  for (const auto& f : spec.outputs()) sum += complexity_factor(f);
  return sum / spec.num_outputs();
}

double expected_complexity_factor(const TernaryTruthTable& f) {
  const double f0 = f.f0();
  const double f1 = f.f1();
  const double fdc = f.f_dc();
  return f0 * f0 + f1 * f1 + fdc * fdc;
}

double expected_complexity_factor(const IncompleteSpec& spec) {
  if (spec.num_outputs() == 0) return 0.0;
  double sum = 0.0;
  for (const auto& f : spec.outputs()) sum += expected_complexity_factor(f);
  return sum / spec.num_outputs();
}

}  // namespace rdc
