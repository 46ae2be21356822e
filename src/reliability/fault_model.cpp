#include "reliability/fault_model.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "common/bits.hpp"
#include "common/bitvec.hpp"
#include "common/format.hpp"
#include "common/simd.hpp"
#include "exec/budget.hpp"
#include "reliability/error_rate.hpp"
#include "reliability/estimator_util.hpp"

namespace rdc::reliability {
namespace {

using reliability_detail::check_error_rate_pair;

/// Two-sided 95% normal quantile (z such that P(|Z| <= z) = 0.95).
constexpr double kZ95 = 1.959963984540054;

/// Budget-poll stride inside the sampling loops and the distance levels.
/// One draw is a handful of rng calls and bit probes, so polling every
/// draw would dominate; every 64th draw keeps the overhead invisible while
/// a deadline or iteration cap still interrupts a large `samples` request
/// mid-loop.
constexpr std::uint64_t kCheckpointStride = 64;

exec::Status invalid(std::string message) {
  return exec::Status(exec::StatusCode::kInvalidArgument, std::move(message));
}

/// A SampledRate with the clamped normal-approximation 95% interval.
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

/// All n-bit masks with exactly k bits set (Gosper's hack).
std::vector<std::uint32_t> k_subsets(unsigned n, unsigned k) {
  std::vector<std::uint32_t> masks;
  if (k == 0 || k > n) return masks;
  std::uint32_t mask = (1u << k) - 1;
  const std::uint32_t limit = 1u << n;
  while (mask < limit) {
    masks.push_back(mask);
    const std::uint32_t c =
        mask & static_cast<std::uint32_t>(-static_cast<std::int32_t>(mask));
    const std::uint32_t r = mask + c;
    mask = (((r ^ mask) >> 2) / c) | r;
  }
  return masks;
}

/// Throws std::invalid_argument ("<where>: ...") unless there is one
/// finite, non-negative weight per pin with a positive sum; returns the sum.
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

/// Single-flip draws stratified by pin: pin j gets an equal share of
/// `samples` (at least one) uniform source minterms, and a draw hits when
/// it is a care vector whose implementation value flips with pin j. Calls
/// stratum(j, p_j, draws_j) for each pin in order, where p_j is the hit
/// fraction; returns the draws spent. The models differ only in how they
/// weight the strata.
template <typename Stratum>
std::uint64_t draw_pin_strata(const TernaryTruthTable& implementation,
                              const TernaryTruthTable& spec,
                              std::uint64_t samples, Rng& rng,
                              const Stratum& stratum) {
  const unsigned n = spec.num_inputs();
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
    stratum(j, static_cast<double>(hits) / static_cast<double>(draws), draws);
    spent += draws;
  }
  return spent;
}

bool parse_double_text(const std::string& text, double& out) {
  const char* begin = text.c_str();
  char* end = nullptr;
  out = std::strtod(begin, &end);
  return end == begin + text.size() && !text.empty();
}

/// Membership bitset of the halfspace { m : bit_j(m) == 1 } over
/// `num_bits` minterms.
BitVec halfspace_one(std::uint64_t num_bits, unsigned j) {
  BitVec half(num_bits);
  std::uint64_t* words = half.data();
  const std::size_t num_words = half.num_words();
  if (j < 6) {
    // In-word pattern: complement of the "input j == 0" interleave mask.
    const std::uint64_t pattern = ~kWordShiftMask[j];
    for (std::size_t w = 0; w < num_words; ++w) words[w] = pattern;
  } else {
    // Whole words alternate at stride 2^(j-6).
    for (std::size_t w = 0; w < num_words; ++w)
      words[w] = ((w >> (j - 6)) & 1) != 0 ? ~0ull : 0ull;
  }
  // Re-establish the tail invariant (bits >= num_bits must be zero).
  BitVec all(num_bits);
  all.fill();
  half &= all;
  return half;
}

// --- bitflip(k) -----------------------------------------------------------
//
// (D_l g)(m) = sum over |S| = l of g(m ^ S) counts the members of a set g
// at Hamming distance exactly l from m. With A the pin-neighbor sum,
// (A h)(m) = sum_j h(m ^ e_j), the hypercube obeys
//   A D_l = (l + 1) D_{l+1} + (n - l + 1) D_{l-1}:
// a point at distance l + 1 from m is at distance l from l + 1 of m's
// neighbors, a point at distance l - 1 from the other n - l + 1. D_0 is the
// set's indicator and D_1 its NeighborTable count, so the k-flip events
// follow level by level instead of by probing C(n,k) masks per DC.

/// D_{l+1}(m) from the accessors of D_l and D_{l-1}. The division is exact
/// and the subtraction never goes negative; n * C(n, l) < 2^32 for
/// n <= kMaxInputs, so uint32 holds every value.
template <typename Level, typename Below>
std::uint32_t next_level(const Level& level, const Below& below,
                         std::uint32_t m, unsigned n, unsigned l) {
  std::uint32_t sum = 0;
  for (unsigned j = 0; j < n; ++j) sum += level(flip_bit(m, j));
  return (sum - (n - l + 1) * below(m)) / (l + 1);
}

/// Fills `out` (one entry per minterm) with D_{l+1}, polling the budget
/// once per 64 minterms.
template <typename Level, typename Below>
void fill_level(std::vector<std::uint32_t>& out, const Level& level,
                const Below& below, unsigned n, unsigned l) {
  for (std::uint32_t m = 0; m < out.size(); ++m) {
    if (m % kCheckpointStride == 0) exec::checkpoint();
    out[m] = next_level(level, below, m, n, l);
  }
}

/// D_k (2 <= k <= n) of one care set at each minterm of `dcs`, from its
/// indicator `d0` and neighbor count `d1`. Levels 2 .. k-1 are built over
/// all minterms, at most three arrays at once; level k only at the DCs.
template <typename D0, typename D1>
std::vector<std::uint32_t> distance_counts(std::span<const std::uint32_t> dcs,
                                           unsigned n, unsigned k,
                                           const D0& d0, const D1& d1) {
  const auto finish = [&](const auto& level, const auto& below) {
    std::vector<std::uint32_t> counts(dcs.size());
    for (std::size_t i = 0; i < dcs.size(); ++i) {
      if (i % kCheckpointStride == 0) exec::checkpoint();
      counts[i] = next_level(level, below, dcs[i], n, k - 1);
    }
    return counts;
  };
  // D_0 vanishes at a DC, so k = 2 needs no level array.
  if (k == 2) return finish(d1, [](std::uint32_t) { return 0u; });
  const auto view = [](const std::vector<std::uint32_t>& v) {
    return [&v](std::uint32_t x) { return v[x]; };
  };
  const std::uint32_t size = std::uint32_t{1} << n;
  std::vector<std::uint32_t> level(size);
  fill_level(level, d1, d0, n, 1);
  if (k == 3) return finish(view(level), d1);
  std::vector<std::uint32_t> below(size);
  std::vector<std::uint32_t> above(size);
  fill_level(above, view(level), d1, n, 2);
  for (unsigned l = 3;; ++l) {
    std::swap(below, level);  // below = D_{l-1}
    std::swap(level, above);  // level = D_l
    if (l + 1 == k) return finish(view(level), view(below));
    fill_level(above, view(level), view(below), n, l);
  }
}

class BitflipModel final : public FaultModel {
 public:
  explicit BitflipModel(FaultModelSpec spec) : FaultModel(std::move(spec)) {}

  double error_rate(const TernaryTruthTable& implementation,
                    const TernaryTruthTable& spec) const override {
    // k = 1 is the exact SIMD-dispatched kernel of error_rate.hpp.
    const unsigned k = model_spec().k();
    if (k == 1) return exact_error_rate(implementation, spec);
    check_pair(implementation, spec);
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
           (static_cast<double>(masks.size()) *
            static_cast<double>(spec.size()));
  }

  std::vector<MintermEvents> dc_assignment_events(
      const TernaryTruthTable& spec, std::span<const std::uint32_t> dcs,
      const NeighborTable& neighbors) const override {
    std::vector<MintermEvents> events(dcs.size());
    if (model_spec().k() == 1) {
      // Distance-1 events are exactly the neighbor counts: assigning the DC
      // to the on-set creates one ordered event per off-set neighbor and
      // vice versa — the paper's ranking weight |on - off| falls out.
      for (std::size_t i = 0; i < dcs.size(); ++i) {
        const NeighborCounts c = neighbors.at(dcs[i]);
        events[i].if_on = static_cast<double>(c.off);
        events[i].if_off = static_cast<double>(c.on);
      }
      return events;
    }
    const unsigned n = spec.num_inputs();
    const unsigned k = model_spec().k();
    if (k > n) return events;  // no minterm lies k flips away
    const std::vector<std::uint32_t> care_on = distance_counts(
        dcs, n, k, [&](std::uint32_t x) { return unsigned{spec.is_on(x)}; },
        [&](std::uint32_t x) { return unsigned{neighbors.at(x).on}; });
    const std::vector<std::uint32_t> care_off = distance_counts(
        dcs, n, k, [&](std::uint32_t x) { return unsigned{spec.is_off(x)}; },
        [&](std::uint32_t x) { return unsigned{neighbors.at(x).off}; });
    for (std::size_t i = 0; i < dcs.size(); ++i) {
      events[i].if_on = static_cast<double>(care_off[i]);
      events[i].if_off = static_cast<double>(care_on[i]);
    }
    return events;
  }

  SampledRate sampled_rate(const TernaryTruthTable& implementation,
                           const TernaryTruthTable& spec,
                           std::uint64_t samples, Rng& rng) const override {
    check_pair(implementation, spec);
    if (samples == 0) return SampledRate{};
    const unsigned n = spec.num_inputs();
    const unsigned k = model_spec().k();

    if (k == 1) {
      // Stratum j estimates p_j, the fraction of sources whose value flips
      // with pin j; the exact rate is (1/n) * sum p_j, so the uniform-weight
      // stratified estimator is unbiased and its variance is the weighted
      // sum of the per-stratum binomial variances — never worse than
      // unstratified draws, and much tighter when pin sensitivities differ.
      double sum_p = 0.0;
      double sum_var = 0.0;
      const std::uint64_t spent = draw_pin_strata(
          implementation, spec, samples, rng,
          [&](unsigned, double p, std::uint64_t draws) {
            sum_p += p;
            sum_var += p * (1.0 - p) / static_cast<double>(draws);
          });
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
      // Uniform k-subset via partial Fisher-Yates over the pin indices.
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

 private:
  /// The pair check plus k <= n (the message of FaultModelSpec::check_inputs).
  void check_pair(const TernaryTruthTable& implementation,
                  const TernaryTruthTable& spec) const {
    check_error_rate_pair(implementation, spec, "bitflip");
    if (exec::Status status = model_spec().check_inputs(spec.num_inputs());
        !status.ok())
      throw std::invalid_argument(status.message());
  }
};

// --- bitflip_weighted -----------------------------------------------------

class BitflipWeightedModel final : public FaultModel {
 public:
  explicit BitflipWeightedModel(FaultModelSpec spec)
      : FaultModel(std::move(spec)) {}

  double error_rate(const TernaryTruthTable& implementation,
                    const TernaryTruthTable& spec) const override {
    check_error_rate_pair(implementation, spec, "bitflip_weighted");
    const unsigned n = spec.num_inputs();
    const std::vector<double>& weights = model_spec().weights();
    const double total_weight =
        check_pin_weights(weights, n, "bitflip_weighted");

    // The weighted sum factors per pin: every propagating event of pin j
    // carries the same weight, so one popcount per pin suffices.
    const BitVec& on = implementation.on_bits();
    const BitVec care = spec.care_bits();
    double propagating = 0.0;
    for (unsigned j = 0; j < n; ++j)
      propagating += weights[j] *
                     static_cast<double>(simd::popcount_shiftxor_and(
                         on.data(), care.data(), on.num_words(), j));
    return propagating / (total_weight * static_cast<double>(spec.size()));
  }

  std::vector<MintermEvents> dc_assignment_events(
      const TernaryTruthTable& spec, std::span<const std::uint32_t> dcs,
      const NeighborTable& neighbors) const override {
    (void)neighbors;
    const unsigned n = spec.num_inputs();
    const std::vector<double>& weights = model_spec().weights();
    check_pin_weights(weights, n, "bitflip_weighted");
    std::vector<MintermEvents> events(dcs.size());
    for (std::size_t i = 0; i < dcs.size(); ++i) {
      for (unsigned j = 0; j < n; ++j) {
        const std::uint32_t x = flip_bit(dcs[i], j);
        if (!spec.is_care(x)) continue;
        if (spec.is_on(x))
          events[i].if_off += weights[j];
        else
          events[i].if_on += weights[j];
      }
    }
    return events;
  }

  SampledRate sampled_rate(const TernaryTruthTable& implementation,
                           const TernaryTruthTable& spec,
                           std::uint64_t samples, Rng& rng) const override {
    check_error_rate_pair(implementation, spec, "bitflip_weighted");
    const unsigned n = spec.num_inputs();
    const double total =
        check_pin_weights(model_spec().weights(), n, "bitflip_weighted");
    if (samples == 0) return SampledRate{};
    // Stratified by pin like bitflip(1); the strata combine with the
    // normalized weights instead of 1/n, so rate = sum (w_j / W) p_j and
    // the variance weights square.
    double rate = 0.0;
    double variance = 0.0;
    const std::uint64_t spent = draw_pin_strata(
        implementation, spec, samples, rng,
        [&](unsigned j, double p, std::uint64_t draws) {
          const double share = model_spec().weights()[j] / total;
          rate += share * p;
          variance +=
              share * share * p * (1.0 - p) / static_cast<double>(draws);
        });
    return with_ci(rate, variance, spent);
  }
};

// --- stuckat --------------------------------------------------------------

class StuckAtModel final : public FaultModel {
 public:
  explicit StuckAtModel(FaultModelSpec spec) : FaultModel(std::move(spec)) {}

  double error_rate(const TernaryTruthTable& implementation,
                    const TernaryTruthTable& spec) const override {
    check_error_rate_pair(implementation, spec, "stuckat");
    const unsigned n = spec.num_inputs();
    if (n == 0) return 0.0;
    // Per fault (j, v): sources are care vectors in the halfspace
    // bit_j == !v, each read as its pin-j neighbor; the per-fault exposure
    // probability is (propagating sources in the halfspace) / (care
    // vectors in the halfspace). Word-parallel: one shift-XOR propagation
    // mask per pin, split into the two halfspaces by a masked popcount.
    // The combination order is pin ascending, bit-0 halfspace first.
    const BitVec& on = implementation.on_bits();
    const BitVec care = spec.care_bits();
    const std::uint64_t care_total = care.count();
    double sum = 0.0;
    for (unsigned j = 0; j < n; ++j) {
      BitVec propagating = on.shift_xor_neighbors(j);
      propagating &= care;
      const BitVec half = halfspace_one(spec.size(), j);
      const std::uint64_t care_one = popcount_and(care, half);
      const std::uint64_t care_zero = care_total - care_one;
      const std::uint64_t prop_one = popcount_and(propagating, half);
      const std::uint64_t prop_zero = propagating.count() - prop_one;
      if (care_zero != 0)  // fault (j, stuck-at-1): sources have bit_j = 0
        sum += static_cast<double>(prop_zero) /
               static_cast<double>(care_zero);
      if (care_one != 0)  // fault (j, stuck-at-0): sources have bit_j = 1
        sum += static_cast<double>(prop_one) / static_cast<double>(care_one);
    }
    return sum / (2.0 * static_cast<double>(n));
  }

  std::vector<MintermEvents> dc_assignment_events(
      const TernaryTruthTable& spec, std::span<const std::uint32_t> dcs,
      const NeighborTable& neighbors) const override {
    (void)neighbors;
    const unsigned n = spec.num_inputs();
    std::vector<MintermEvents> events(dcs.size());
    if (n == 0) return events;
    // Care-set size of every pin halfspace, once: the event mass a DC adds
    // when its care neighbor x becomes a fault source is 1 / C_j(bit_j(x))
    // (the per-fault normalization of error_rate, with the constant 1/(2n)
    // dropped — ranking only compares masses).
    const BitVec care = spec.care_bits();
    const std::uint64_t care_total = care.count();
    std::vector<std::array<std::uint64_t, 2>> care_count(n);
    for (unsigned j = 0; j < n; ++j) {
      const std::uint64_t ones =
          popcount_and(care, halfspace_one(spec.size(), j));
      care_count[j] = {care_total - ones, ones};
    }
    for (std::size_t i = 0; i < dcs.size(); ++i) {
      for (unsigned j = 0; j < n; ++j) {
        const std::uint32_t x = flip_bit(dcs[i], j);
        if (!spec.is_care(x)) continue;
        const std::uint64_t sources = care_count[j][(x >> j) & 1u];
        const double mass = 1.0 / static_cast<double>(sources);
        if (spec.is_on(x))
          events[i].if_off += mass;
        else
          events[i].if_on += mass;
      }
    }
    return events;
  }

  SampledRate sampled_rate(const TernaryTruthTable& implementation,
                           const TernaryTruthTable& spec,
                           std::uint64_t samples, Rng& rng) const override {
    check_error_rate_pair(implementation, spec, "stuckat");
    const unsigned n = spec.num_inputs();
    if (n == 0 || samples == 0) return SampledRate{};
    // Stratified by fault (j, v). Each stratum draws uniformly from the
    // source halfspace (2^(n-1) vectors) and counts a hit when the draw is
    // a care vector on which the implementation differs across pin j; the
    // per-fault exposure probability rescales by 2^(n-1) / C_j. Strata
    // with no care sources contribute exactly zero and are skipped.
    const BitVec care = spec.care_bits();
    const std::uint64_t care_total = care.count();
    const std::uint64_t half_size = spec.size() / 2;
    const unsigned strata = 2 * n;
    double rate = 0.0;
    double variance = 0.0;
    std::uint64_t spent = 0;
    unsigned stratum = 0;
    for (unsigned j = 0; j < n; ++j) {
      const std::uint64_t care_one =
          popcount_and(care, halfspace_one(spec.size(), j));
      const std::uint64_t care_by_bit[2] = {care_total - care_one, care_one};
      for (unsigned b = 0; b < 2; ++b, ++stratum) {
        if (care_by_bit[b] == 0) continue;
        const std::uint64_t draws = std::max<std::uint64_t>(
            1, samples / strata + (stratum < samples % strata ? 1 : 0));
        std::uint64_t hits = 0;
        for (std::uint64_t s = 0; s < draws; ++s) {
          if ((spent + s) % kCheckpointStride == 0) exec::checkpoint();
          const auto r = static_cast<std::uint32_t>(rng.below(half_size));
          const std::uint32_t low_mask = (1u << j) - 1;
          const std::uint32_t m = ((r & ~low_mask) << 1) |
                                  (static_cast<std::uint32_t>(b) << j) |
                                  (r & low_mask);
          if (!spec.is_care(m)) continue;
          if (implementation.is_on(m) != implementation.is_on(flip_bit(m, j)))
            ++hits;
        }
        const double q =
            static_cast<double>(hits) / static_cast<double>(draws);
        const double scale = static_cast<double>(half_size) /
                             static_cast<double>(care_by_bit[b]);
        rate += scale * q;
        variance +=
            scale * scale * q * (1.0 - q) / static_cast<double>(draws);
        spent += draws;
      }
    }
    const double inv = 1.0 / static_cast<double>(strata);
    return with_ci(rate * inv, variance * inv * inv, spent);
  }
};

}  // namespace

FaultModelSpec FaultModelSpec::bitflip(unsigned k) {
  FaultModelSpec spec;
  spec.kind_ = FaultModelKind::kBitflip;
  spec.k_ = k;
  return spec;
}

FaultModelSpec FaultModelSpec::bitflip_weighted(std::vector<double> weights) {
  FaultModelSpec spec;
  spec.kind_ = FaultModelKind::kBitflipWeighted;
  spec.weights_ = std::move(weights);
  return spec;
}

FaultModelSpec FaultModelSpec::stuckat() {
  FaultModelSpec spec;
  spec.kind_ = FaultModelKind::kStuckAt;
  return spec;
}

exec::Status FaultModelSpec::parse(const std::string& name,
                                   const std::vector<std::string>& args,
                                   FaultModelSpec& out) {
  out = FaultModelSpec();
  if (name == "bitflip") {
    if (args.size() > 1)
      return invalid("fault model 'bitflip' takes at most 1 argument");
    unsigned k = 1;
    if (!args.empty()) {
      const auto [ptr, ec] = std::from_chars(
          args[0].data(), args[0].data() + args[0].size(), k);
      if (ec != std::errc() || ptr != args[0].data() + args[0].size() ||
          k == 0 || k > TernaryTruthTable::kMaxInputs)
        return invalid("fault model 'bitflip': '" + args[0] +
                       "' is not a flip count in [1, " +
                       std::to_string(TernaryTruthTable::kMaxInputs) + "]");
    }
    out = bitflip(k);
    return {};
  }
  if (name == "bitflip_weighted") {
    if (args.empty())
      return invalid(
          "fault model 'bitflip_weighted' needs per-pin weights, e.g. "
          "bitflip_weighted(1,0.5)");
    if (args.size() > TernaryTruthTable::kMaxInputs)
      return invalid("fault model 'bitflip_weighted' takes at most " +
                     std::to_string(TernaryTruthTable::kMaxInputs) +
                     " weights");
    std::vector<double> weights;
    weights.reserve(args.size());
    double total = 0.0;
    for (const std::string& arg : args) {
      double w = 0.0;
      if (!parse_double_text(arg, w) || !std::isfinite(w) || w < 0.0)
        return invalid("fault model 'bitflip_weighted': '" + arg +
                       "' is not a non-negative weight");
      weights.push_back(w);
      total += w;
    }
    if (total <= 0.0)
      return invalid("fault model 'bitflip_weighted': weights sum to zero");
    out = bitflip_weighted(std::move(weights));
    return {};
  }
  if (name == "stuckat") {
    if (!args.empty())
      return invalid("fault model 'stuckat' takes no arguments");
    out = stuckat();
    return {};
  }
  return invalid("unknown fault model '" + name + "'");
}

std::string FaultModelSpec::canonical() const {
  switch (kind_) {
    case FaultModelKind::kBitflip:
      return k_ == 1 ? "bitflip" : "bitflip(" + std::to_string(k_) + ")";
    case FaultModelKind::kBitflipWeighted: {
      std::string out = "bitflip_weighted(";
      for (std::size_t i = 0; i < weights_.size(); ++i) {
        if (i != 0) out += ',';
        out += format_double(weights_[i]);
      }
      out += ')';
      return out;
    }
    case FaultModelKind::kStuckAt:
      return "stuckat";
  }
  return "unknown";
}

exec::Status FaultModelSpec::check_inputs(unsigned num_inputs) const {
  if (kind_ == FaultModelKind::kBitflip && k_ == 0)
    return invalid("bitflip(0) flips no pin");
  if (kind_ == FaultModelKind::kBitflip && k_ > num_inputs)
    return invalid(canonical() + " needs at least " + std::to_string(k_) +
                   " inputs, spec has " + std::to_string(num_inputs));
  if (kind_ == FaultModelKind::kBitflipWeighted &&
      weights_.size() != num_inputs)
    return invalid("fault_model bitflip_weighted needs " +
                   std::to_string(num_inputs) + " weights, got " +
                   std::to_string(weights_.size()));
  return {};
}

std::vector<std::string> fault_model_names() {
  return {"bitflip", "bitflip_weighted", "stuckat"};
}

double FaultModel::error_rate(const IncompleteSpec& implementation,
                              const IncompleteSpec& spec) const {
  if (implementation.num_outputs() != spec.num_outputs())
    throw std::invalid_argument("fault model: output count mismatch");
  if (spec.num_outputs() == 0) return 0.0;
  double sum = 0.0;
  for (unsigned o = 0; o < spec.num_outputs(); ++o)
    sum += error_rate(implementation.output(o), spec.output(o));
  return sum / spec.num_outputs();
}

SampledRate FaultModel::sampled_rate(const IncompleteSpec& implementation,
                                     const IncompleteSpec& spec,
                                     std::uint64_t samples, Rng& rng) const {
  if (implementation.num_outputs() != spec.num_outputs())
    throw std::invalid_argument("fault model: output count mismatch");
  const unsigned m = spec.num_outputs();
  if (m == 0) return SampledRate{};
  double sum_rate = 0.0;
  double sum_var = 0.0;
  std::uint64_t spent = 0;
  for (unsigned o = 0; o < m; ++o) {
    const SampledRate r = sampled_rate(implementation.output(o),
                                       spec.output(o), samples, rng);
    sum_rate += r.rate;
    sum_var += r.variance;
    spent += r.samples;
  }
  const double inv_m = 1.0 / static_cast<double>(m);
  return with_ci(sum_rate * inv_m, sum_var * inv_m * inv_m, spent);
}

std::unique_ptr<FaultModel> make_fault_model(const FaultModelSpec& spec) {
  switch (spec.kind()) {
    case FaultModelKind::kBitflip:
      return std::make_unique<BitflipModel>(spec);
    case FaultModelKind::kBitflipWeighted:
      return std::make_unique<BitflipWeightedModel>(spec);
    case FaultModelKind::kStuckAt:
      return std::make_unique<StuckAtModel>(spec);
  }
  return std::make_unique<BitflipModel>(FaultModelSpec{});
}

DetectabilityReport classify_stuckat_faults(const TernaryTruthTable& spec) {
  DetectabilityReport report;
  const unsigned n = spec.num_inputs();
  report.faults.reserve(2 * n);
  for (unsigned j = 0; j < n; ++j) {
    for (unsigned v = 0; v < 2; ++v) {
      // Sources of fault (j, stuck-at-v) are care vectors with bit_j = !v;
      // each is read as its pin-j neighbor. A care neighbor of the
      // opposite spec value exposes the fault under every correct
      // implementation; a DC neighbor leaves exposure to the assignment.
      bool definite = false;
      bool assignment_possible = false;
      for (std::uint32_t m = 0; m < spec.size() && !definite; ++m) {
        if (((m >> j) & 1u) == v) continue;  // not in the source halfspace
        if (!spec.is_care(m)) continue;      // DC vectors never occur
        const std::uint32_t read = flip_bit(m, j);
        if (spec.is_dc(read)) {
          assignment_possible = true;
          continue;
        }
        if (spec.is_on(read) != spec.is_on(m)) definite = true;
      }
      StuckAtFault fault;
      fault.pin = j;
      fault.stuck_at_one = v != 0;
      if (definite)
        fault.detectability = FaultDetectability::kDetectable;
      else if (assignment_possible)
        fault.detectability = FaultDetectability::kAssignmentDependent;
      else
        fault.detectability = FaultDetectability::kUntestable;
      switch (fault.detectability) {
        case FaultDetectability::kDetectable: ++report.detectable; break;
        case FaultDetectability::kAssignmentDependent:
          ++report.assignment_dependent;
          break;
        case FaultDetectability::kUntestable: ++report.untestable; break;
      }
      report.faults.push_back(fault);
    }
  }
  return report;
}

unsigned untestable_stuckat_faults(const IncompleteSpec& spec) {
  unsigned total = 0;
  for (const TernaryTruthTable& f : spec.outputs())
    total += classify_stuckat_faults(f).untestable;
  return total;
}

}  // namespace rdc::reliability
