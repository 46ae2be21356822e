// Differential tests for the SIMD dispatch layer (common/simd.hpp) and
// bitflip(1)'s CI-producing sampled estimator.
//
// Every backend the CPU supports is driven through simd::set_backend and
// compared bit-for-bit against the scalar (portable word-parallel) kernels
// across n = 1..16 and DC densities 0 / 0.3 / 0.6 / 1.0. The stratified
// 95% CI is checked against the exact rate at small n.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "oracles/error_rate.hpp"
#include "reliability/error_rate.hpp"
#include "reliability/fault_model.hpp"
#include "tt/incomplete_spec.hpp"
#include "tt/neighbor_stats.hpp"
#include "tt/ternary_function.hpp"

namespace rdc {
namespace {

using reliability::SampledRate;

constexpr double kDcDensities[] = {0.0, 0.3, 0.6, 1.0};

/// Every backend this CPU can run, scalar first.
std::vector<simd::Backend> supported_backends() {
  std::vector<simd::Backend> backends;
  for (const simd::Backend b :
       {simd::Backend::kScalar, simd::Backend::kAvx2, simd::Backend::kAvx512})
    if (simd::backend_supported(b)) backends.push_back(b);
  return backends;
}

/// Forces `backend` for a scope and restores the previous one after.
class BackendGuard {
 public:
  explicit BackendGuard(simd::Backend backend)
      : previous_(simd::active_backend()) {
    EXPECT_TRUE(simd::set_backend(backend));
  }
  ~BackendGuard() { simd::set_backend(previous_); }

 private:
  simd::Backend previous_;
};

TernaryTruthTable random_ternary(unsigned n, double dc_density, Rng& rng) {
  TernaryTruthTable f(n);
  for (std::uint32_t m = 0; m < f.size(); ++m) {
    if (rng.flip(dc_density))
      f.set_phase(m, Phase::kDc);
    else
      f.set_phase(m, rng.flip(0.5) ? Phase::kOne : Phase::kZero);
  }
  return f;
}

TernaryTruthTable random_complete(unsigned n, Rng& rng) {
  return random_ternary(n, 0.0, rng);
}

// --- dispatch plumbing ----------------------------------------------------

TEST(SimdDispatch, BackendNamesRoundTrip) {
  for (const simd::Backend b :
       {simd::Backend::kScalar, simd::Backend::kAvx2,
        simd::Backend::kAvx512}) {
    simd::Backend parsed;
    ASSERT_TRUE(simd::parse_backend(simd::backend_name(b), parsed));
    EXPECT_EQ(parsed, b);
  }
  simd::Backend parsed = simd::Backend::kScalar;
  EXPECT_FALSE(simd::parse_backend("sse9", parsed));
  EXPECT_FALSE(simd::parse_backend("", parsed));
  EXPECT_EQ(parsed, simd::Backend::kScalar);  // untouched on failure
}

TEST(SimdDispatch, ScalarAlwaysSupportedAndSelectable) {
  EXPECT_TRUE(simd::backend_supported(simd::Backend::kScalar));
  EXPECT_TRUE(simd::backend_supported(simd::best_backend()));
  BackendGuard guard(simd::Backend::kScalar);
  EXPECT_EQ(simd::active_backend(), simd::Backend::kScalar);
}

TEST(SimdDispatch, SetBackendSwitchesActive) {
  const simd::Backend previous = simd::active_backend();
  for (const simd::Backend b : supported_backends()) {
    ASSERT_TRUE(simd::set_backend(b));
    EXPECT_EQ(simd::active_backend(), b);
  }
  simd::set_backend(previous);
}

// --- kernel differential tests --------------------------------------------

TEST(SimdKernels, PopcountsMatchScalarAcrossBackends) {
  const std::vector<simd::Backend> backends = supported_backends();
  Rng rng(7001);
  for (unsigned n = 1; n <= 16; ++n) {
    for (const double density : kDcDensities) {
      const TernaryTruthTable f = random_ternary(n, density, rng);
      const TernaryTruthTable g = random_ternary(n, density, rng);
      const BitVec& a = f.on_bits();
      const BitVec b = f.care_bits();
      const BitVec& c = g.on_bits();
      const std::size_t words = a.num_words();

      std::uint64_t want_and = 0, want_xor_and = 0;
      std::vector<std::uint64_t> want_sxa(n);
      {
        BackendGuard guard(simd::Backend::kScalar);
        want_and = simd::popcount_and(a.data(), b.data(), words);
        want_xor_and =
            simd::popcount_xor_and(a.data(), c.data(), b.data(), words);
        for (unsigned j = 0; j < n; ++j)
          want_sxa[j] =
              simd::popcount_shiftxor_and(a.data(), b.data(), words, j);
      }
      for (const simd::Backend backend : backends) {
        BackendGuard guard(backend);
        EXPECT_EQ(simd::popcount_and(a.data(), b.data(), words), want_and)
            << simd::backend_name(backend) << " n=" << n << " dc=" << density;
        EXPECT_EQ(simd::popcount_xor_and(a.data(), c.data(), b.data(), words),
                  want_xor_and)
            << simd::backend_name(backend) << " n=" << n << " dc=" << density;
        for (unsigned j = 0; j < n; ++j)
          EXPECT_EQ(simd::popcount_shiftxor_and(a.data(), b.data(), words, j),
                    want_sxa[j])
              << simd::backend_name(backend) << " n=" << n << " j=" << j
              << " dc=" << density;
      }
    }
  }
}

TEST(SimdKernels, ShiftXorMatchesScalarAcrossBackends) {
  const std::vector<simd::Backend> backends = supported_backends();
  Rng rng(7002);
  for (unsigned n = 1; n <= 16; ++n) {
    const TernaryTruthTable f = random_ternary(n, 0.3, rng);
    const BitVec& a = f.on_bits();
    const std::size_t words = a.num_words();
    for (unsigned j = 0; j < n; ++j) {
      std::vector<std::uint64_t> want(words);
      {
        BackendGuard guard(simd::Backend::kScalar);
        simd::shift_xor(want.data(), a.data(), words, j);
      }
      for (const simd::Backend backend : backends) {
        BackendGuard guard(backend);
        std::vector<std::uint64_t> got(words, ~std::uint64_t{0});
        simd::shift_xor(got.data(), a.data(), words, j);
        EXPECT_EQ(got, want)
            << simd::backend_name(backend) << " n=" << n << " j=" << j;
      }
    }
  }
}

TEST(SimdKernels, NeighborTableMatchesScalarReferenceOnEveryBackend) {
  // NeighborTable's word-parallel constructor has its own AVX block paths;
  // compare every backend against the one-bit-at-a-time oracle counts.
  Rng rng(7003);
  for (unsigned n = 1; n <= 12; ++n) {
    for (const double density : kDcDensities) {
      const TernaryTruthTable f = random_ternary(n, density, rng);
      const std::vector<NeighborCounts> reference =
          oracle::neighbor_counts(f);
      for (const simd::Backend backend : supported_backends()) {
        BackendGuard guard(backend);
        const NeighborTable table(f);
        for (std::uint32_t m = 0; m < f.size(); ++m) {
          const NeighborCounts want = reference[m];
          const NeighborCounts got = table.at(m);
          ASSERT_TRUE(want.on == got.on && want.off == got.off &&
                      want.dc == got.dc)
              << simd::backend_name(backend) << " n=" << n
              << " dc=" << density << " m=" << m;
        }
      }
    }
  }
}

TEST(SimdKernels, ExactErrorRateIdenticalAcrossBackends) {
  Rng rng(7004);
  for (unsigned n = 1; n <= 16; ++n) {
    for (const double density : kDcDensities) {
      const TernaryTruthTable spec = random_ternary(n, density, rng);
      const TernaryTruthTable impl = random_complete(n, rng);
      const double reference = oracle::error_rate(impl, spec);
      for (const simd::Backend backend : supported_backends()) {
        BackendGuard guard(backend);
        // Bit-identical, not just close: every backend returns exact
        // integer event counts.
        EXPECT_EQ(exact_error_rate(impl, spec), reference)
            << simd::backend_name(backend) << " n=" << n << " dc=" << density;
      }
    }
  }
}

// --- sampled estimator with confidence intervals ---------------------------

/// bitflip(1)'s estimate: draws stratified by pin.
SampledRate sampled_ci(const auto& implementation, const auto& spec,
                       std::uint64_t samples, Rng& rng) {
  return reliability::make_fault_model(reliability::FaultModelSpec::bitflip(1))
      ->sampled_rate(implementation, spec, samples, rng);
}

TEST(SampledCi, DeterministicForAFixedSeed) {
  Rng make(7201);
  const TernaryTruthTable spec = random_ternary(8, 0.4, make);
  const TernaryTruthTable impl = random_complete(8, make);
  Rng rng_a(42), rng_b(42);
  const SampledRate a = sampled_ci(impl, spec, 5000, rng_a);
  const SampledRate b = sampled_ci(impl, spec, 5000, rng_b);
  EXPECT_EQ(a.rate, b.rate);
  EXPECT_EQ(a.ci_low, b.ci_low);
  EXPECT_EQ(a.ci_high, b.ci_high);
  EXPECT_EQ(a.samples, b.samples);
}

TEST(SampledCi, IntervalIsOrderedAndClamped) {
  Rng make(7202);
  const TernaryTruthTable spec = random_ternary(6, 0.3, make);
  const TernaryTruthTable impl = random_complete(6, make);
  Rng rng(1);
  const SampledRate r = sampled_ci(impl, spec, 2000, rng);
  EXPECT_LE(0.0, r.ci_low);
  EXPECT_LE(r.ci_low, r.rate);
  EXPECT_LE(r.rate, r.ci_high);
  EXPECT_LE(r.ci_high, 1.0);
  EXPECT_GE(r.samples, 2000u);  // stratification never drops draws
}

TEST(SampledCi, ParityIsAPointEstimate) {
  // Every event propagates through parity, so every stratum sees p = 1 and
  // the interval collapses to [1, 1].
  TernaryTruthTable parity(5);
  for (std::uint32_t m = 0; m < 32; ++m) {
    unsigned bits = 0;
    for (unsigned j = 0; j < 5; ++j) bits += (m >> j) & 1u;
    parity.set_phase(m, bits % 2 ? Phase::kOne : Phase::kZero);
  }
  Rng rng(3);
  const SampledRate r = sampled_ci(parity, parity, 1000, rng);
  EXPECT_EQ(r.rate, 1.0);
  EXPECT_EQ(r.ci_low, 1.0);
  EXPECT_EQ(r.ci_high, 1.0);
}

TEST(SampledCi, CoversTheExactRateAtSmallN) {
  // Nominal coverage is 95%; over 100 independent seeds the exact rate
  // should land inside the interval in the vast majority of them. The
  // bound (85) leaves ~5 sigma of slack for binomial noise, so the test is
  // deterministic in practice while still catching a broken interval.
  Rng make(7203);
  for (const unsigned n : {8u, 12u}) {
    const TernaryTruthTable spec = random_ternary(n, 0.4, make);
    const TernaryTruthTable impl = random_complete(n, make);
    const double exact = exact_error_rate(impl, spec);
    int covered = 0;
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      Rng rng(seed);
      const SampledRate r = sampled_ci(impl, spec, 4000, rng);
      if (exact >= r.ci_low && exact <= r.ci_high) ++covered;
    }
    EXPECT_GE(covered, 85) << "n=" << n;
  }
}

TEST(SampledCi, MultiOutputCombinesEstimates) {
  Rng make(7204);
  IncompleteSpec spec("s", 7, 3);
  for (auto& f : spec.outputs()) f = random_ternary(7, 0.4, make);
  IncompleteSpec impl("i", 7, 3);
  for (auto& f : impl.outputs()) f = random_complete(7, make);
  const double exact = exact_error_rate(impl, spec);

  Rng rng(11);
  const SampledRate r = sampled_ci(impl, spec, 6000, rng);
  // Draws are spent per output.
  EXPECT_GE(r.samples, 3u * 6000u);
  // The combined interval should be in the right neighborhood of the mean
  // rate (wide tolerance: this is a smoke bound, coverage is tested above).
  EXPECT_NEAR(r.rate, exact, 0.1);
  EXPECT_LE(r.ci_low, r.rate);
  EXPECT_GE(r.ci_high, r.rate);
}

TEST(SampledCi, TightensWithMoreSamples) {
  Rng make(7205);
  const TernaryTruthTable spec = random_ternary(10, 0.5, make);
  const TernaryTruthTable impl = random_complete(10, make);
  Rng rng_small(5), rng_big(5);
  const SampledRate small = sampled_ci(impl, spec, 500, rng_small);
  const SampledRate big = sampled_ci(impl, spec, 50000, rng_big);
  EXPECT_LT(big.ci_high - big.ci_low, small.ci_high - small.ci_low);
}

}  // namespace
}  // namespace rdc
