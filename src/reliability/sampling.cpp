#include "reliability/sampling.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/bits.hpp"
#include "common/bitvec.hpp"
#include "exec/budget.hpp"
#include "reliability/estimator_util.hpp"

namespace rdc {

namespace reliability_detail {

SampledRate with_ci(double rate, double variance, std::uint64_t samples) {
  SampledRate out;
  out.rate = rate;
  out.variance = variance;
  const double half = kZ95 * std::sqrt(std::max(variance, 0.0));
  out.ci_low = std::clamp(rate - half, 0.0, 1.0);
  out.ci_high = std::clamp(rate + half, 0.0, 1.0);
  out.samples = samples;
  return out;
}

std::vector<std::uint32_t> k_subsets(unsigned n, unsigned k) {
  std::vector<std::uint32_t> masks;
  if (k == 0 || k > n) return masks;
  std::uint32_t mask = (1u << k) - 1;
  const std::uint32_t limit = 1u << n;
  while (mask < limit) {
    masks.push_back(mask);
    const std::uint32_t c = mask & static_cast<std::uint32_t>(-static_cast<std::int32_t>(mask));
    const std::uint32_t r = mask + c;
    mask = (((r ^ mask) >> 2) / c) | r;
  }
  return masks;
}

}  // namespace reliability_detail

using reliability_detail::k_subsets;
using reliability_detail::kCheckpointStride;
using reliability_detail::with_ci;

namespace {

void check_pair(const TernaryTruthTable& implementation,
                const TernaryTruthTable& spec, unsigned k) {
  if (!implementation.fully_specified())
    throw std::invalid_argument(
        "error rate: implementation must be completely specified");
  if (implementation.num_inputs() != spec.num_inputs())
    throw std::invalid_argument("error rate: input count mismatch");
  if (k == 0 || k > spec.num_inputs())
    throw std::invalid_argument("error rate: bad flip count k");
}

template <typename Fn>
double mean_over_outputs(const IncompleteSpec& implementation,
                         const IncompleteSpec& spec, Fn fn) {
  if (implementation.num_outputs() != spec.num_outputs())
    throw std::invalid_argument("error rate: output count mismatch");
  if (spec.num_outputs() == 0) return 0.0;
  double sum = 0.0;
  for (unsigned o = 0; o < spec.num_outputs(); ++o)
    sum += fn(implementation.output(o), spec.output(o));
  return sum / spec.num_outputs();
}

}  // namespace

double exact_error_rate_kbit(const TernaryTruthTable& implementation,
                             const TernaryTruthTable& spec, unsigned k) {
  check_pair(implementation, spec, k);
  // Word-parallel: per flip mask, the propagating care sources are the set
  // bits of (on ^ xor_permute(on, mask)) & care — the k-bit generalization
  // of the single-flip shift-XOR kernel.
  const std::vector<std::uint32_t> masks = k_subsets(spec.num_inputs(), k);
  const BitVec& on = implementation.on_bits();
  const BitVec care = spec.care_bits();
  std::uint64_t propagating = 0;
  for (const std::uint32_t mask : masks)
    propagating += popcount_xor_and(on, on.xor_permute(mask), care);
  return static_cast<double>(propagating) /
         (static_cast<double>(masks.size()) * static_cast<double>(spec.size()));
}

double exact_error_rate_kbit_scalar(const TernaryTruthTable& implementation,
                                    const TernaryTruthTable& spec,
                                    unsigned k) {
  check_pair(implementation, spec, k);
  const std::vector<std::uint32_t> masks = k_subsets(spec.num_inputs(), k);
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

double exact_error_rate_kbit(const IncompleteSpec& implementation,
                             const IncompleteSpec& spec, unsigned k) {
  return mean_over_outputs(
      implementation, spec,
      [&](const TernaryTruthTable& i, const TernaryTruthTable& s) {
        return exact_error_rate_kbit(i, s, k);
      });
}

double sampled_error_rate(const TernaryTruthTable& implementation,
                          const TernaryTruthTable& spec, unsigned k,
                          std::uint64_t samples, Rng& rng) {
  check_pair(implementation, spec, k);
  if (samples == 0) return 0.0;
  const unsigned n = spec.num_inputs();
  std::uint64_t propagating = 0;
  unsigned pins[32];
  for (std::uint64_t s = 0; s < samples; ++s) {
    if (s % kCheckpointStride == 0) exec::checkpoint();
    const auto m = static_cast<std::uint32_t>(rng.below(spec.size()));
    if (!spec.is_care(m)) continue;  // DC sources never occur: count 0
    // Uniform k-subset via partial Fisher-Yates over the pin indices.
    for (unsigned j = 0; j < n; ++j) pins[j] = j;
    std::uint32_t mask = 0;
    for (unsigned j = 0; j < k; ++j) {
      const auto pick = j + static_cast<unsigned>(rng.below(n - j));
      std::swap(pins[j], pins[pick]);
      mask |= 1u << pins[j];
    }
    if (implementation.is_on(m) != implementation.is_on(m ^ mask))
      ++propagating;
  }
  return static_cast<double>(propagating) / static_cast<double>(samples);
}

double sampled_error_rate(const IncompleteSpec& implementation,
                          const IncompleteSpec& spec, unsigned k,
                          std::uint64_t samples, Rng& rng) {
  return mean_over_outputs(
      implementation, spec,
      [&](const TernaryTruthTable& i, const TernaryTruthTable& s) {
        return sampled_error_rate(i, s, k, samples, rng);
      });
}

SampledRate sampled_error_rate_ci(const TernaryTruthTable& implementation,
                                  const TernaryTruthTable& spec, unsigned k,
                                  std::uint64_t samples, Rng& rng) {
  check_pair(implementation, spec, k);
  if (samples == 0) return SampledRate{};
  const unsigned n = spec.num_inputs();

  if (k == 1) {
    // Stratified by pin: stratum j estimates p_j, the fraction of sources
    // whose value flips with pin j; the exact rate is (1/n) * sum p_j, so
    // the uniform-weight stratified estimator is unbiased and its variance
    // is the weighted sum of the per-stratum binomial variances.
    double sum_p = 0.0;
    double sum_var = 0.0;
    std::uint64_t spent = 0;
    for (unsigned j = 0; j < n; ++j) {
      const std::uint64_t draws =
          std::max<std::uint64_t>(1, samples / n + (j < samples % n ? 1 : 0));
      std::uint64_t hits = 0;
      for (std::uint64_t s = 0; s < draws; ++s) {
        if ((spent + s) % kCheckpointStride == 0) exec::checkpoint();
        const auto m = static_cast<std::uint32_t>(rng.below(spec.size()));
        if (!spec.is_care(m)) continue;
        if (implementation.is_on(m) != implementation.is_on(flip_bit(m, j)))
          ++hits;
      }
      const double p = static_cast<double>(hits) / static_cast<double>(draws);
      sum_p += p;
      sum_var += p * (1.0 - p) / static_cast<double>(draws);
      spent += draws;
    }
    const double inv_n = 1.0 / static_cast<double>(n);
    return with_ci(sum_p * inv_n, sum_var * inv_n * inv_n, spent);
  }

  // k > 1: unstratified (source, uniform k-subset) draws — one binomial.
  unsigned pins[32];
  std::uint64_t hits = 0;
  for (std::uint64_t s = 0; s < samples; ++s) {
    if (s % kCheckpointStride == 0) exec::checkpoint();
    const auto m = static_cast<std::uint32_t>(rng.below(spec.size()));
    if (!spec.is_care(m)) continue;
    for (unsigned j = 0; j < n; ++j) pins[j] = j;
    std::uint32_t mask = 0;
    for (unsigned j = 0; j < k; ++j) {
      const auto pick = j + static_cast<unsigned>(rng.below(n - j));
      std::swap(pins[j], pins[pick]);
      mask |= 1u << pins[j];
    }
    if (implementation.is_on(m) != implementation.is_on(m ^ mask)) ++hits;
  }
  const double p = static_cast<double>(hits) / static_cast<double>(samples);
  return with_ci(p, p * (1.0 - p) / static_cast<double>(samples), samples);
}

SampledRate sampled_error_rate_ci(const IncompleteSpec& implementation,
                                  const IncompleteSpec& spec, unsigned k,
                                  std::uint64_t samples, Rng& rng) {
  if (implementation.num_outputs() != spec.num_outputs())
    throw std::invalid_argument("error rate: output count mismatch");
  const unsigned m = spec.num_outputs();
  if (m == 0) return SampledRate{};
  double sum_rate = 0.0;
  double sum_var = 0.0;
  std::uint64_t spent = 0;
  for (unsigned o = 0; o < m; ++o) {
    const SampledRate r = sampled_error_rate_ci(implementation.output(o),
                                                spec.output(o), k, samples,
                                                rng);
    sum_rate += r.rate;
    sum_var += r.variance;
    spent += r.samples;
  }
  const double inv_m = 1.0 / static_cast<double>(m);
  return with_ci(sum_rate * inv_m, sum_var * inv_m * inv_m, spent);
}

}  // namespace rdc
