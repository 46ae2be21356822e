// Tests for the k-bit exact rates and the sampled estimators of the
// bitflip fault models (reliability/fault_model.hpp).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "exec/budget.hpp"
#include "exec/status.hpp"
#include "oracles/error_rate.hpp"
#include "reliability/error_rate.hpp"
#include "reliability/fault_model.hpp"

namespace rdc {
namespace {

using reliability::FaultModel;
using reliability::FaultModelSpec;

std::unique_ptr<FaultModel> bitflip(unsigned k) {
  return reliability::make_fault_model(FaultModelSpec::bitflip(k));
}

TernaryTruthTable random_complete(unsigned n, Rng& rng) {
  TernaryTruthTable f(n);
  for (std::uint32_t m = 0; m < f.size(); ++m)
    f.set_phase(m, rng.flip(0.5) ? Phase::kOne : Phase::kZero);
  return f;
}

TEST(KbitErrorRate, OneBitMatchesExact) {
  // The k-subset enumeration at k = 1 counts the single-flip events.
  Rng rng(401);
  for (int trial = 0; trial < 10; ++trial) {
    const TernaryTruthTable impl = random_complete(6, rng);
    TernaryTruthTable spec = impl;
    // Carve some DCs out of the spec.
    for (std::uint32_t m = 0; m < spec.size(); ++m)
      if (rng.flip(0.3)) spec.set_phase(m, Phase::kDc);
    EXPECT_EQ(oracle::error_rate_kbit(impl, spec, 1),
              exact_error_rate(impl, spec));
  }
}

TEST(KbitErrorRate, ParityAlwaysPropagatesOddK) {
  TernaryTruthTable parity(5);
  for (std::uint32_t m = 0; m < 32; ++m)
    if (std::popcount(m) % 2) parity.set_phase(m, Phase::kOne);
  EXPECT_DOUBLE_EQ(bitflip(1)->error_rate(parity, parity), 1.0);
  EXPECT_DOUBLE_EQ(bitflip(3)->error_rate(parity, parity), 1.0);
  // Even flip counts never change a parity output.
  EXPECT_DOUBLE_EQ(bitflip(2)->error_rate(parity, parity), 0.0);
  EXPECT_DOUBLE_EQ(bitflip(4)->error_rate(parity, parity), 0.0);
}

TEST(KbitErrorRate, FullFlipOfConjunction) {
  // f = x0 & x1 on 2 inputs; k = 2 flips 00<->11 and 01<->10.
  TernaryTruthTable f(2);
  f.set_phase(0b11, Phase::kOne);
  // Sources 00 and 11 flip into each other: output changes (2 events).
  // Sources 01 and 10 swap: both map to 0 (0 events). 2/4 rate.
  EXPECT_DOUBLE_EQ(bitflip(2)->error_rate(f, f), 0.5);
}

TEST(KbitErrorRate, RejectsBadK) {
  TernaryTruthTable f(3);
  Rng rng(1);
  EXPECT_THROW(bitflip(0)->error_rate(f, f), std::invalid_argument);
  EXPECT_THROW(bitflip(0)->sampled_rate(f, f, 100, rng),
               std::invalid_argument);
  try {
    (void)bitflip(4)->error_rate(f, f);
    FAIL() << "bitflip(4) accepted a 3-input spec";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "bitflip(4) needs at least 4 inputs, spec has 3");
  }
  EXPECT_THROW(bitflip(4)->sampled_rate(f, f, 100, rng),
               std::invalid_argument);
}

TEST(KbitErrorRate, DcSourcesExcluded) {
  TernaryTruthTable impl(3);
  impl.set_phase(0, Phase::kOne);
  TernaryTruthTable spec = impl;
  for (std::uint32_t m = 0; m < 8; ++m) spec.set_phase(m, Phase::kDc);
  // No care sources at all: rate is exactly 0 for every k.
  for (unsigned k = 1; k <= 3; ++k)
    EXPECT_DOUBLE_EQ(bitflip(k)->error_rate(impl, spec), 0.0);
}

TEST(SampledErrorRate, ConvergesToExact) {
  Rng rng(409);
  const TernaryTruthTable impl = random_complete(8, rng);
  TernaryTruthTable spec = impl;
  for (std::uint32_t m = 0; m < spec.size(); ++m)
    if (rng.flip(0.4)) spec.set_phase(m, Phase::kDc);
  for (unsigned k : {1u, 2u}) {
    const auto model = bitflip(k);
    const double exact = model->error_rate(impl, spec);
    const double sampled = model->sampled_rate(impl, spec, 60000, rng).rate;
    // 60k samples: standard error < 0.25%; allow 4 sigma.
    EXPECT_NEAR(sampled, exact, 4.0 * std::sqrt(0.25 / 60000.0)) << "k=" << k;
  }
}

TEST(SampledErrorRate, ZeroSamples) {
  TernaryTruthTable f(3);
  Rng rng(1);
  for (unsigned k : {1u, 2u}) {
    const reliability::SampledRate r = bitflip(k)->sampled_rate(f, f, 0, rng);
    EXPECT_EQ(r.rate, 0.0) << "k=" << k;
    EXPECT_EQ(r.samples, 0u) << "k=" << k;
  }
}

TEST(SampledErrorRate, DeterministicGivenRngState) {
  Rng init(6);
  const TernaryTruthTable impl = random_complete(6, init);
  for (unsigned k : {1u, 2u}) {
    Rng a(5);
    Rng b(5);
    const auto model = bitflip(k);
    EXPECT_EQ(model->sampled_rate(impl, impl, 5000, a).rate,
              model->sampled_rate(impl, impl, 5000, b).rate)
        << "k=" << k;
  }
}

TEST(SampledErrorRate, MultiOutputMean) {
  IncompleteSpec impl("s", 4, 2);
  IncompleteSpec spec("s", 4, 2);
  for (std::uint32_t m = 0; m < 16; ++m)
    if (std::popcount(m) % 2) {
      impl.output(0).set_phase(m, Phase::kOne);
      spec.output(0).set_phase(m, Phase::kOne);
    }
  // Output 0 = parity (rate 1), output 1 = constant (rate 0).
  Rng rng(7);
  const auto model = bitflip(1);
  EXPECT_DOUBLE_EQ(model->sampled_rate(impl, spec, 2000, rng).rate, 0.5);
  EXPECT_DOUBLE_EQ(model->error_rate(impl, spec), 0.5);
}

TEST(SampledErrorRate, BudgetCheckpointTripsInsideTheDrawLoop) {
  // The estimators poll exec::checkpoint() every 64th draw, so a budget
  // installed around a sampled evaluation can stop it mid-loop with the
  // typed kResourceExhausted trip instead of running all draws.
  exec::BudgetLimits limits;
  limits.max_checkpoints = 10;
  exec::ExecBudget budget(limits);
  exec::BudgetScope scope(&budget);
  Rng init(11);
  const TernaryTruthTable impl = random_complete(6, init);
  Rng rng(13);
  try {
    (void)bitflip(1)->sampled_rate(impl, impl, 20000, rng);
    FAIL() << "the stratified draw loop ignored the tripped budget";
  } catch (const exec::StatusError& e) {
    EXPECT_EQ(e.status().code(), exec::StatusCode::kResourceExhausted);
  }
  // Trips are sticky: the k-subset draw loop fails the same way afterwards.
  try {
    (void)bitflip(2)->sampled_rate(impl, impl, 20000, rng);
    FAIL() << "the k-subset draw loop ignored the tripped budget";
  } catch (const exec::StatusError& e) {
    EXPECT_EQ(e.status().code(), exec::StatusCode::kResourceExhausted);
  }
}

}  // namespace
}  // namespace rdc
