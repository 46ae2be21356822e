// Tests for the pluggable fault-model layer (DESIGN.md §16): spec parsing
// and canonical round trips, the cache-key compatibility contract
// (budget_fingerprint = the pre-§16 bytes), each concrete model checked
// exactly against its scalar oracle (tests/oracles/error_rate.*) and pinned
// bit for bit by a rate fingerprint, the stuck-at detectability classifier
// (inadmissible class), pipeline '@model' annotations with byte-offset
// errors, and the report stamping and annotations that keep cache keys
// from aliasing.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "exec/budget.hpp"
#include "flow/batch_supervisor.hpp"
#include "flow/pass.hpp"
#include "flow/pipeline.hpp"
#include "flow/synthesis_flow.hpp"
#include "flow_specs.hpp"
#include "obs/events.hpp"
#include "oracles/error_rate.hpp"
#include "oracles/kbit_events.hpp"
#include "reliability/assignment.hpp"
#include "reliability/error_rate.hpp"
#include "reliability/fault_model.hpp"
#include "serve/cache.hpp"
#include "synthetic/generator.hpp"
#include "tt/incomplete_spec.hpp"
#include "tt/neighbor_stats.hpp"
#include "tt/ternary_function.hpp"

namespace rdc {
namespace {

using exec::StatusCode;
using reliability::FaultDetectability;
using reliability::FaultModel;
using reliability::FaultModelSpec;
using reliability::MintermEvents;
using reliability::SampledRate;

constexpr double kDcDensities[] = {0.0, 0.3, 0.6, 1.0};

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
  TernaryTruthTable f(n);
  for (std::uint32_t m = 0; m < f.size(); ++m)
    f.set_phase(m, rng.flip(0.5) ? Phase::kOne : Phase::kZero);
  return f;
}

/// The paper's flow behind `assign` run under `model`: the annotation goes
/// on the passes that consult a model, the reliability assignment
/// (conventional consults none) and the trailing error_rate.
std::string annotated_flow(const std::string& assign,
                           const FaultModelSpec& model) {
  const std::string at = flow::model_annotation(model);
  const bool reads_model = assign != "assign:conventional";
  return assign + (reads_model ? at : "") + test::kLowerHalf + at;
}

// --- FaultModelSpec: grammar, canonical form, fingerprint -----------------

TEST(FaultModelSpec, ParseAndCanonicalRoundTrip) {
  const struct {
    const char* name;
    std::vector<std::string> args;
    FaultModelSpec expected;
    const char* canonical;
  } cases[] = {
      {"bitflip", {}, FaultModelSpec::bitflip(), "bitflip"},
      // bitflip(1) canonicalizes to the bare name — a fixed point, so the
      // fuzzer's reparse/re-render contract holds for every spelling.
      {"bitflip", {"1"}, FaultModelSpec::bitflip(1), "bitflip"},
      {"bitflip", {"2"}, FaultModelSpec::bitflip(2), "bitflip(2)"},
      {"bitflip_weighted",
       {"1", "0.5"},
       FaultModelSpec::bitflip_weighted({1.0, 0.5}),
       "bitflip_weighted(1,0.5)"},
      {"stuckat", {}, FaultModelSpec::stuckat(), "stuckat"},
  };
  for (const auto& c : cases) {
    FaultModelSpec parsed;
    const exec::Status status = FaultModelSpec::parse(c.name, c.args, parsed);
    ASSERT_TRUE(status.ok()) << c.canonical << ": " << status.message();
    EXPECT_EQ(parsed, c.expected) << c.canonical;
    EXPECT_EQ(parsed.canonical(), c.canonical);
  }
  EXPECT_TRUE(FaultModelSpec().is_default());
  EXPECT_TRUE(FaultModelSpec::bitflip(1).is_default());
  EXPECT_FALSE(FaultModelSpec::bitflip(2).is_default());
  EXPECT_FALSE(FaultModelSpec::stuckat().is_default());
  EXPECT_FALSE(FaultModelSpec::bitflip_weighted({1.0}).is_default());
}

TEST(FaultModelSpec, ParseRejectsBadReferences) {
  const struct {
    const char* name;
    std::vector<std::string> args;
    const char* fragment;
  } cases[] = {
      {"nosuchmodel", {}, "unknown fault model 'nosuchmodel'"},
      {"bitflip", {"0"}, "not a flip count"},
      {"bitflip", {"21"}, "not a flip count"},
      {"bitflip", {"x"}, "not a flip count"},
      {"bitflip", {"1", "2"}, "at most 1 argument"},
      {"bitflip_weighted", {}, "needs per-pin weights"},
      {"bitflip_weighted", {"0", "0"}, "weights sum to zero"},
      {"bitflip_weighted", {"nan"}, "not a non-negative weight"},
      {"bitflip_weighted", {"inf"}, "not a non-negative weight"},
      {"bitflip_weighted", {"-1"}, "not a non-negative weight"},
      {"stuckat", {"1"}, "takes no arguments"},
  };
  for (const auto& c : cases) {
    FaultModelSpec out = FaultModelSpec::stuckat();  // must be reset
    const exec::Status status = FaultModelSpec::parse(c.name, c.args, out);
    ASSERT_FALSE(status.ok()) << c.name;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << c.name;
    EXPECT_NE(status.message().find(c.fragment), std::string::npos)
        << c.name << " -> " << status.message();
    EXPECT_EQ(out, FaultModelSpec()) << "out not reset for " << c.name;
  }
}

TEST(FaultModelSpec, RegistryNames) {
  const std::vector<std::string> names = reliability::fault_model_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "bitflip");
  EXPECT_EQ(names[1], "bitflip_weighted");
  EXPECT_EQ(names[2], "stuckat");
}

TEST(FaultModelSpec, FingerprintsSeparateModels) {
  // A model's identity in cache and journal keys is its canonical text,
  // the `@model` annotation of the canonical pipeline: distinct models
  // never share it, and one model always renders it the same way.
  const FaultModelSpec specs[] = {
      FaultModelSpec(),
      FaultModelSpec::bitflip(2),
      FaultModelSpec::bitflip(3),
      FaultModelSpec::bitflip_weighted({1.0, 0.5}),
      FaultModelSpec::bitflip_weighted({0.5, 1.0}),
      FaultModelSpec::stuckat(),
  };
  for (std::size_t i = 0; i < std::size(specs); ++i)
    for (std::size_t j = i + 1; j < std::size(specs); ++j)
      EXPECT_NE(specs[i].canonical(), specs[j].canonical());
  EXPECT_EQ(FaultModelSpec::stuckat().canonical(),
            FaultModelSpec::stuckat().canonical());
  EXPECT_EQ(FaultModelSpec::bitflip(1).canonical(),
            FaultModelSpec().canonical());
}

// --- cache-key compatibility ----------------------------------------------

// The fingerprint cache and journal keys were built on before the budget
// limits became its only input, replicated field by field with the flow
// options it once hashed at their defaults. It must equal
// budget_fingerprint for every budget: old fingerprints key warm serve
// caches and resumable journals, so changing them silently is a bug.
std::uint64_t legacy_fingerprint(const exec::BudgetLimits& budget) {
  const auto fnv1a = [](const void* data, std::size_t size,
                        std::uint64_t hash) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 0x100000001b3ull;
    }
    return hash;
  };
  const auto mix_u64 = [&](std::uint64_t hash, std::uint64_t value) {
    return fnv1a(&value, sizeof value, hash);
  };
  const auto mix_double = [&](std::uint64_t hash, double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return mix_u64(hash, bits);
  };
  std::uint64_t hash = 0xcbf29ce484222325ull;
  hash = mix_u64(hash, 1);         // objective: power
  hash = mix_double(hash, 0.5);    // ranking fraction
  hash = mix_double(hash, 0.55);   // LC^f threshold
  hash = mix_u64(hash, 0);         // LC^f ties left unassigned
  hash = mix_u64(hash, 0);         // no resyn recipe
  hash = mix_u64(hash, 0);         // no kernel extraction
  hash = mix_u64(hash, 0x9e3779b97f4a7c15ull);  // the sampled-pass seed
  hash = mix_double(hash, budget.deadline_ms);
  hash = mix_u64(hash, budget.max_checkpoints);
  hash = mix_u64(hash, budget.max_rss_bytes);
  return hash;
}

TEST(FlowFingerprint, DefaultModelPreservesPreRefactorBytes) {
  exec::BudgetLimits budget;
  EXPECT_EQ(flow::budget_fingerprint(budget),
            legacy_fingerprint(budget));
  budget.deadline_ms = 1500.0;
  EXPECT_EQ(flow::budget_fingerprint(budget),
            legacy_fingerprint(budget));
  budget.max_checkpoints = 1000;
  EXPECT_EQ(flow::budget_fingerprint(budget),
            legacy_fingerprint(budget));
  budget.max_rss_bytes = 1 << 20;
  EXPECT_EQ(flow::budget_fingerprint(budget),
            legacy_fingerprint(budget));
}

TEST(FlowFingerprint, NonDefaultModelsNeverAlias) {
  // A model reaches the serve-cache key through the pipeline's
  // annotations; the default model's key is that of the unannotated
  // canonical spec.
  const std::string pla = ".i 4\n.o 1\n0000 1\n.e\n";
  const std::uint64_t budget = flow::budget_fingerprint({});
  std::vector<std::uint64_t> keys = {serve::result_cache_key(
      pla, test::paper_flow("assign:ranking(0.5)"), budget)};
  for (const FaultModelSpec& model :
       {FaultModelSpec::bitflip(2), FaultModelSpec::stuckat(),
        FaultModelSpec::bitflip_weighted({1.0, 0.5, 0.25, 0.125})})
    keys.push_back(serve::result_cache_key(
        pla, annotated_flow("assign:ranking(0.5)", model), budget));
  EXPECT_EQ(keys[0], serve::result_cache_key(
                         pla, "assign:ranking(0.5) | espresso | factor | aig "
                              "| map:power | analyze | error_rate",
                         budget));
  for (std::size_t i = 0; i < keys.size(); ++i)
    for (std::size_t j = i + 1; j < keys.size(); ++j)
      EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
}

// --- bitflip model vs the scalar oracles ---------------------------------

TEST(BitflipModel, MatchesExactKernels) {
  // Both sides count integer events and divide once, so they agree
  // exactly; k = 1 is the paper's exact_error_rate kernel.
  Rng rng(9001);
  for (unsigned n = 1; n <= 10; ++n) {
    for (const double density : kDcDensities) {
      const TernaryTruthTable spec = random_ternary(n, density, rng);
      const TernaryTruthTable impl = random_complete(n, rng);
      EXPECT_EQ(reliability::make_fault_model(FaultModelSpec::bitflip(1))
                    ->error_rate(impl, spec),
                oracle::error_rate(impl, spec))
          << "n=" << n << " dc=" << density;
      for (unsigned k = 1; k <= std::min(n, 3u); ++k)
        EXPECT_EQ(reliability::make_fault_model(FaultModelSpec::bitflip(k))
                      ->error_rate(impl, spec),
                  oracle::error_rate_kbit(impl, spec, k))
            << "n=" << n << " dc=" << density << " k=" << k;
    }
  }
}

TEST(BitflipModel, EventsMatchNeighborCounts) {
  const auto model = reliability::make_fault_model(FaultModelSpec::bitflip(1));
  Rng rng(9002);
  for (unsigned n = 1; n <= 8; ++n) {
    const TernaryTruthTable spec = random_ternary(n, 0.5, rng);
    const NeighborTable neighbors(spec);
    const std::vector<std::uint32_t> dcs = spec.dc_minterms();
    const std::vector<MintermEvents> events =
        model->dc_assignment_events(spec, dcs, neighbors);
    ASSERT_EQ(events.size(), dcs.size()) << "n=" << n;
    for (std::size_t i = 0; i < dcs.size(); ++i) {
      const NeighborCounts c = neighbors.at(dcs[i]);
      // Joining the on-set creates an event per off-neighbor and vice
      // versa — exactly the paper's majority-vote quantities.
      EXPECT_EQ(events[i].if_on, static_cast<double>(c.off)) << "n=" << n;
      EXPECT_EQ(events[i].if_off, static_cast<double>(c.on)) << "n=" << n;
    }
  }
}

// bitflip(k) events against the probe-loop oracle. Both sides count
// integers, so they must agree exactly. k = n + 1 exceeds the cube (all-zero
// events); n = 16, k = 8 is where the recursion's intermediate levels peak
// (C(16,8) = 12870); n = 20 is kMaxInputs. At the two large widths the
// oracle probes a sample of the DCs, which the model also accepts.
TEST(BitflipModel, KbitEventsMatchOracle) {
  const auto expect_match = [](const TernaryTruthTable& spec,
                               std::span<const std::uint32_t> dcs, unsigned k,
                               const std::string& where) {
    const NeighborTable neighbors(spec);
    const auto model =
        reliability::make_fault_model(FaultModelSpec::bitflip(k));
    const std::vector<MintermEvents> events =
        model->dc_assignment_events(spec, dcs, neighbors);
    const std::vector<MintermEvents> expected =
        oracle::kbit_events(spec, dcs, k);
    ASSERT_EQ(events.size(), expected.size()) << where;
    for (std::size_t i = 0; i < dcs.size(); ++i) {
      EXPECT_EQ(events[i].if_on, expected[i].if_on) << where << " m=" << dcs[i];
      EXPECT_EQ(events[i].if_off, expected[i].if_off)
          << where << " m=" << dcs[i];
      if (::testing::Test::HasFailure()) return;  // one report, not thousands
    }
  };
  const auto sample_dcs = [](const TernaryTruthTable& spec, std::size_t count,
                             Rng& rng) {
    const std::vector<std::uint32_t> all = spec.dc_minterms();
    std::vector<std::uint32_t> picked(count);
    for (std::uint32_t& m : picked) m = all[rng.below(all.size())];
    return picked;
  };

  Rng rng(9020);
  for (unsigned n = 1; n <= 12; ++n) {
    for (const double density : {0.0, 0.3, 0.7, 1.0}) {
      const TernaryTruthTable spec = random_ternary(n, density, rng);
      const std::vector<std::uint32_t> dcs = spec.dc_minterms();
      for (unsigned k = 1; k <= n + 1; ++k)
        expect_match(spec, dcs, k,
                     "n=" + std::to_string(n) + " k=" + std::to_string(k) +
                         " dc=" + std::to_string(density));
    }
  }
  const TernaryTruthTable wide = random_ternary(16, 0.5, rng);
  expect_match(wide, sample_dcs(wide, 1024, rng), 8, "n=16 k=8");
  const TernaryTruthTable widest = random_ternary(20, 0.7, rng);
  expect_match(widest, sample_dcs(widest, 4096, rng), 2, "n=20 k=2");
}

TEST(BitflipModel, KbitEventsPollTheBudget) {
  // The k >= 2 events poll exec::checkpoint() once per 64 minterms of each
  // pass, so an expired deadline stops them instead of running to the end.
  Rng rng(9021);
  const TernaryTruthTable spec = random_ternary(14, 0.7, rng);
  const NeighborTable neighbors(spec);
  const std::vector<std::uint32_t> dcs = spec.dc_minterms();
  const auto model = reliability::make_fault_model(FaultModelSpec::bitflip(3));
  exec::ExecBudget expired = exec::ExecBudget::with_deadline_ms(0.001);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  exec::BudgetScope scope(&expired);
  try {
    (void)model->dc_assignment_events(spec, dcs, neighbors);
    FAIL() << "bitflip(3) events ignored the expired budget";
  } catch (const exec::StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kDeadlineExceeded);
  }
}

// --- weighted model: differential + degenerate weights --------------------

TEST(WeightedModel, MatchesExactWeightedKernels) {
  // Per-pin integer counts weighted in pin order on both sides: exact.
  Rng rng(9003);
  for (unsigned n = 1; n <= 12; ++n) {
    std::vector<double> weights(n);
    for (double& w : weights) w = rng.uniform() * 2.0;
    weights[0] += 0.01;  // keep the sum positive even if all draws are tiny
    const auto model = reliability::make_fault_model(
        FaultModelSpec::bitflip_weighted(weights));
    for (const double density : kDcDensities) {
      const TernaryTruthTable spec = random_ternary(n, density, rng);
      const TernaryTruthTable impl = random_complete(n, rng);
      EXPECT_EQ(model->error_rate(impl, spec),
                oracle::error_rate_weighted(impl, spec, weights))
          << "n=" << n << " dc=" << density;
    }
  }
}

TEST(WeightedModel, SinglePinWeightIsolatesThatPin) {
  // All the event mass on pin j: the weighted rate must equal the
  // unweighted rate restricted to pin-j flips, for every pin.
  Rng rng(9004);
  const unsigned n = 6;
  const TernaryTruthTable spec = random_ternary(n, 0.4, rng);
  const TernaryTruthTable impl = random_complete(n, rng);
  for (unsigned j = 0; j < n; ++j) {
    std::vector<double> weights(n, 0.0);
    weights[j] = 1.0;
    // Brute-force reference: propagating pin-j events over care sources,
    // normalized by the 2^n sources of the single unit-weight pin.
    double propagating = 0.0;
    for (std::uint32_t m = 0; m < spec.size(); ++m) {
      if (!spec.is_care(m)) continue;
      if (impl.is_on(m) != impl.is_on(flip_bit(m, j))) propagating += 1.0;
    }
    const double expected = propagating / spec.size();
    EXPECT_DOUBLE_EQ(reliability::make_fault_model(
                         FaultModelSpec::bitflip_weighted(weights))
                         ->error_rate(impl, spec),
                     expected)
        << "pin " << j;
  }
}

TEST(WeightedModel, DegenerateWeightsAreRejected) {
  Rng rng(9005);
  const TernaryTruthTable spec = random_ternary(4, 0.4, rng);
  const TernaryTruthTable impl = random_complete(4, rng);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  const std::vector<double> all_zero(4, 0.0);
  const std::vector<double> has_nan{1.0, nan, 1.0, 1.0};
  const std::vector<double> has_inf{1.0, 1.0, inf, 1.0};
  const std::vector<double> negative{1.0, -0.5, 1.0, 1.0};
  for (const auto& weights : {all_zero, has_nan, has_inf, negative}) {
    const auto model = reliability::make_fault_model(
        FaultModelSpec::bitflip_weighted(weights));
    EXPECT_THROW(model->error_rate(impl, spec), std::invalid_argument);
    Rng draws(1);
    EXPECT_THROW(model->sampled_rate(impl, spec, 100, draws),
                 std::invalid_argument);
  }

  // A single positive pin among zeros is fine — degenerate but valid.
  const std::vector<double> single{0.0, 0.0, 1.0, 0.0};
  const auto model =
      reliability::make_fault_model(FaultModelSpec::bitflip_weighted(single));
  EXPECT_EQ(model->error_rate(impl, spec),
            oracle::error_rate_weighted(impl, spec, single));
}

// --- stuck-at model: oracle, hand cases, brute-force events ---------------

TEST(StuckAtModel, WordParallelMatchesScalarReference) {
  const auto model = reliability::make_fault_model(FaultModelSpec::stuckat());
  Rng rng(9006);
  for (unsigned n = 1; n <= 12; ++n) {
    for (const double density : kDcDensities) {
      const TernaryTruthTable spec = random_ternary(n, density, rng);
      const TernaryTruthTable impl = random_complete(n, rng);
      EXPECT_EQ(model->error_rate(impl, spec),
                oracle::error_rate_stuckat(impl, spec))
          << "n=" << n << " dc=" << density;
    }
  }
}

TEST(StuckAtModel, HandComputedRates) {
  const auto model = reliability::make_fault_model(FaultModelSpec::stuckat());

  // Identity on one input: both stuck-at faults always propagate.
  TernaryTruthTable identity(1);
  identity.set_phase(1, Phase::kOne);
  EXPECT_DOUBLE_EQ(model->error_rate(identity, identity), 1.0);

  // Constant functions mask every stuck-at fault.
  const TernaryTruthTable zero(2);
  EXPECT_DOUBLE_EQ(model->error_rate(zero, zero), 0.0);

  // AND on two inputs: each of the four faults is exposed by one of the
  // two care sources in its halfspace, so each contributes 1/2 and the
  // rate is 4 * (1/2) / (2 * 2) = 0.5.
  TernaryTruthTable and2(2);
  and2.set_phase(3, Phase::kOne);
  EXPECT_DOUBLE_EQ(model->error_rate(and2, and2), 0.5);

  // Pin-asymmetric care set: spec cares on {00, 01, 10}, minterm 11 is DC
  // and the implementation drives it to 0; impl = {0, 1, 0, 0}. Halfspace
  // normalization makes stuck-at genuinely different from bit flips here:
  // bitflip rate = 3 propagating events / (2 * 4) = 0.375, stuck-at rate
  // = (1/1 + 1/2 + 0 + 1/2) / (2 * 2) = 0.5.
  TernaryTruthTable spec(2);
  spec.set_phase(1, Phase::kOne);
  spec.set_phase(3, Phase::kDc);
  TernaryTruthTable impl(2);
  impl.set_phase(1, Phase::kOne);
  EXPECT_DOUBLE_EQ(exact_error_rate(impl, spec), 0.375);
  EXPECT_DOUBLE_EQ(model->error_rate(impl, spec), 0.5);
}

TEST(StuckAtModel, EventsBruteForceAtSmallN) {
  // dc_assignment_events against a direct enumeration: assigning the DC to
  // a phase adds, for each fault (j, v), the 1/C_j(bit_j) exposure mass of
  // every new propagating (source, fault) pair the assignment creates
  // among care sources reading across to the opposite phase.
  const auto model = reliability::make_fault_model(FaultModelSpec::stuckat());
  Rng rng(9007);
  for (unsigned n = 2; n <= 10; ++n) {
    const TernaryTruthTable spec = random_ternary(n, 0.5, rng);
    const NeighborTable neighbors(spec);
    const std::vector<std::uint32_t> dcs = spec.dc_minterms();
    const std::vector<MintermEvents> events =
        model->dc_assignment_events(spec, dcs, neighbors);
    ASSERT_EQ(events.size(), dcs.size());
    for (std::size_t i = 0; i < dcs.size(); ++i) {
      const std::uint32_t m = dcs[i];
      double if_on = 0.0;
      double if_off = 0.0;
      for (unsigned j = 0; j < n; ++j) {
        const std::uint32_t source = flip_bit(m, j);
        if (!spec.is_care(source)) continue;
        // The fault stuck-at-bit_j(m) reads `source` as m; its exposure is
        // normalized by the care population of the source's halfspace.
        double care_sources = 0.0;
        for (std::uint32_t x = 0; x < spec.size(); ++x)
          if (spec.is_care(x) && ((x >> j) & 1u) == ((source >> j) & 1u))
            care_sources += 1.0;
        if (spec.is_on(source)) if_off += 1.0 / care_sources;
        if (spec.is_off(source)) if_on += 1.0 / care_sources;
      }
      EXPECT_EQ(events[i].if_on, if_on) << "n=" << n << " m=" << m;
      EXPECT_EQ(events[i].if_off, if_off) << "n=" << n << " m=" << m;
    }
  }
}

TEST(StuckAtModel, SampledCiCoversTheExactRate) {
  const auto model = reliability::make_fault_model(FaultModelSpec::stuckat());
  Rng make(9008);
  for (const unsigned n : {8u, 10u}) {
    const TernaryTruthTable spec = random_ternary(n, 0.4, make);
    const TernaryTruthTable impl = random_complete(n, make);
    const double exact = model->error_rate(impl, spec);
    int covered = 0;
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      Rng rng(seed);
      const SampledRate r = model->sampled_rate(impl, spec, 4000, rng);
      EXPECT_LE(0.0, r.ci_low);
      EXPECT_LE(r.ci_low, r.ci_high);
      EXPECT_LE(r.ci_high, 1.0);
      if (exact >= r.ci_low && exact <= r.ci_high) ++covered;
    }
    EXPECT_GE(covered, 85) << "n=" << n;
  }
}

TEST(WeightedModel, SampledCiCoversTheExactRate) {
  Rng make(9009);
  const unsigned n = 9;
  std::vector<double> weights(n);
  for (double& w : weights) w = 0.1 + make.uniform();
  const auto model =
      reliability::make_fault_model(FaultModelSpec::bitflip_weighted(weights));
  const TernaryTruthTable spec = random_ternary(n, 0.4, make);
  const TernaryTruthTable impl = random_complete(n, make);
  const double exact = model->error_rate(impl, spec);
  int covered = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed);
    const SampledRate r = model->sampled_rate(impl, spec, 4000, rng);
    if (exact >= r.ci_low && exact <= r.ci_high) ++covered;
  }
  EXPECT_GE(covered, 85);
}

// --- multi-output means ---------------------------------------------------

TEST(FaultModel, MultiOutputRateIsThePerOutputMean) {
  Rng rng(9010);
  IncompleteSpec spec("s", 6, 3);
  IncompleteSpec impl("i", 6, 3);
  for (unsigned o = 0; o < 3; ++o) {
    spec.output(o) = random_ternary(6, 0.4, rng);
    impl.output(o) = random_complete(6, rng);
  }
  for (const FaultModelSpec& ms :
       {FaultModelSpec::bitflip(1), FaultModelSpec::stuckat()}) {
    const auto model = reliability::make_fault_model(ms);
    double sum = 0.0;
    for (unsigned o = 0; o < 3; ++o)
      sum += model->error_rate(impl.output(o), spec.output(o));
    EXPECT_DOUBLE_EQ(model->error_rate(impl, spec), sum / 3.0)
        << ms.canonical();
  }
  IncompleteSpec wrong("w", 6, 2);
  for (unsigned o = 0; o < 2; ++o) wrong.output(o) = random_complete(6, rng);
  const auto model = reliability::make_fault_model(FaultModelSpec::stuckat());
  EXPECT_THROW(model->error_rate(wrong, spec), std::invalid_argument);
}

// Every model's exact and sampled rates, bit for bit: random specs n = 4..14
// at fixed seeds, single- and multi-output, with sample budgets that do and
// do not divide into the strata (5 draws leaves most strata one draw each).
TEST(FaultModel, RateFingerprint) {
  Rng rng(9030);
  std::uint64_t hash = kFnv1aOffset;
  const auto mix = [&hash](const SampledRate& r) {
    for (const double v : {r.rate, r.variance, r.ci_low, r.ci_high})
      hash = fnv1a_double(v, hash);
    hash = fnv1a_u64(r.samples, hash);
  };
  for (unsigned n = 4; n <= 14; ++n) {
    std::vector<double> weights(n);
    for (double& w : weights) w = 0.1 + rng.uniform();
    const TernaryTruthTable spec = random_ternary(n, kDcDensities[n % 4], rng);
    const TernaryTruthTable impl = random_complete(n, rng);
    IncompleteSpec multi_spec("s", n, 3);
    IncompleteSpec multi_impl("i", n, 3);
    for (unsigned o = 0; o < 3; ++o) {
      multi_spec.output(o) = random_ternary(n, 0.4, rng);
      multi_impl.output(o) = random_complete(n, rng);
    }
    for (const FaultModelSpec& ms :
         {FaultModelSpec::bitflip(1), FaultModelSpec::bitflip(2),
          FaultModelSpec::bitflip(3), FaultModelSpec::bitflip_weighted(weights),
          FaultModelSpec::stuckat()}) {
      const auto model = reliability::make_fault_model(ms);
      hash = fnv1a_double(model->error_rate(impl, spec), hash);
      hash = fnv1a_double(model->error_rate(multi_impl, multi_spec), hash);
      Rng draws(1000 + n);
      mix(model->sampled_rate(impl, spec, 3000, draws));
      mix(model->sampled_rate(impl, spec, 5, draws));
      mix(model->sampled_rate(multi_impl, multi_spec, 3000, draws));
    }
  }
  EXPECT_EQ(hash, 0x9ece6cead89d75beull);
}

// --- stuck-at detectability (the inadmissible class) ----------------------

TEST(Detectability, ConstantFunctionsAreInadmissible) {
  const TernaryTruthTable zero(2);
  const reliability::DetectabilityReport report =
      reliability::classify_stuckat_faults(zero);
  ASSERT_EQ(report.faults.size(), 4u);
  EXPECT_EQ(report.untestable, 4u);
  EXPECT_EQ(report.detectable, 0u);
  EXPECT_EQ(report.assignment_dependent, 0u);
  EXPECT_TRUE(report.inadmissible());
  // Fault ordering contract: pin ascending, stuck-at-0 before stuck-at-1.
  EXPECT_EQ(report.faults[0].pin, 0u);
  EXPECT_FALSE(report.faults[0].stuck_at_one);
  EXPECT_EQ(report.faults[1].pin, 0u);
  EXPECT_TRUE(report.faults[1].stuck_at_one);
  EXPECT_EQ(report.faults[3].pin, 1u);
}

TEST(Detectability, ParityIsFullyDetectable) {
  TernaryTruthTable parity(3);
  for (std::uint32_t m = 0; m < parity.size(); ++m)
    if (std::popcount(m) % 2 == 1) parity.set_phase(m, Phase::kOne);
  const reliability::DetectabilityReport report =
      reliability::classify_stuckat_faults(parity);
  EXPECT_EQ(report.detectable, 6u);
  EXPECT_EQ(report.untestable, 0u);
  EXPECT_EQ(report.assignment_dependent, 0u);
  EXPECT_FALSE(report.inadmissible());
}

TEST(Detectability, DcNeighborsMakeFaultsAssignmentDependent) {
  // f(0) = 0, f(1) = DC on one input. Stuck-at-0 has no care source in
  // the x0=1 halfspace (untestable); stuck-at-1's only witness reads the
  // DC minterm, so the assignment decides testability.
  TernaryTruthTable f(1);
  f.set_phase(1, Phase::kDc);
  const reliability::DetectabilityReport report =
      reliability::classify_stuckat_faults(f);
  ASSERT_EQ(report.faults.size(), 2u);
  EXPECT_EQ(report.faults[0].detectability, FaultDetectability::kUntestable);
  EXPECT_EQ(report.faults[1].detectability,
            FaultDetectability::kAssignmentDependent);
  EXPECT_EQ(report.untestable, 1u);
  EXPECT_EQ(report.assignment_dependent, 1u);
  EXPECT_TRUE(report.inadmissible());
}

TEST(Detectability, MultiOutputUntestableTotal) {
  IncompleteSpec spec("s", 2, 2);
  spec.output(0) = TernaryTruthTable(2);  // constant 0: 4 untestable
  TernaryTruthTable xor2(2);
  xor2.set_phase(1, Phase::kOne);
  xor2.set_phase(2, Phase::kOne);
  spec.output(1) = xor2;  // fully detectable
  EXPECT_EQ(reliability::untestable_stuckat_faults(spec), 4u);
}

// --- pipeline '@model' annotations ----------------------------------------

TEST(PipelineAnnotation, ErrorsCarryByteOffsets) {
  const struct {
    const char* spec;
    const char* fragment;
  } cases[] = {
      {"assign:ranking(0.5)@", "expected a fault model name after '@' at offset 20"},
      {"assign:ranking(0.5)@nosuchmodel",
       "unknown fault model 'nosuchmodel' at offset 20"},
      {"assign:ranking(0.5)@bitflip(0)", "not a flip count in [1, 20] at offset 20"},
      {"assign:ranking(0.5)@stuckat(1)",
       "fault model 'stuckat' takes no arguments at offset 20"},
      {"assign:ranking(0.5)@stuckat(", "unclosed '(' at offset 27"},
      {"assign:ranking(0.5)@stuckat()",
       "empty argument for fault model 'stuckat' at offset 28"},
      {"espresso@stuckat",
       "pass 'espresso' does not accept a fault model annotation at offset 8"},
      {"assign:conventional@stuckat",
       "does not accept a fault model annotation at offset 19"},
  };
  for (const auto& c : cases) {
    exec::Result<flow::Pipeline> result = flow::parse_pipeline(c.spec);
    ASSERT_FALSE(result.ok()) << c.spec;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << c.spec;
    EXPECT_NE(result.status().message().find(c.fragment), std::string::npos)
        << c.spec << " -> " << result.status().message();
  }
}

TEST(PipelineAnnotation, RoundTripsThroughToString) {
  const struct {
    const char* spec;
    const char* rendered;  ///< canonical re-rendering
  } cases[] = {
      {"assign:ranking(0.5)@stuckat | espresso",
       "assign:ranking(0.5)@stuckat | espresso"},
      {"assign:ranking(0.5) @ stuckat | espresso",
       "assign:ranking(0.5)@stuckat | espresso"},
      // bitflip(1) renders as the bare canonical name; the annotation is
      // kept (it selects the label) even though behavior is the default.
      {"assign:lcf(0.55)@bitflip(1)", "assign:lcf(0.55)@bitflip"},
      {"error_rate@bitflip(2)", "error_rate@bitflip(2)"},
      {"assign:all@bitflip_weighted(1, 0.5)",
       "assign:all@bitflip_weighted(1,0.5)"},
      {"error_rate:sampled(4096)@stuckat", "error_rate:sampled(4096)@stuckat"},
  };
  for (const auto& c : cases) {
    exec::Result<flow::Pipeline> first = flow::parse_pipeline(c.spec);
    ASSERT_TRUE(first.ok()) << c.spec << " -> " << first.status().message();
    EXPECT_EQ(first->to_string(), c.rendered) << c.spec;
    // Canonical forms are fixed points: reparse and re-render identically.
    exec::Result<flow::Pipeline> second = flow::parse_pipeline(c.rendered);
    ASSERT_TRUE(second.ok()) << c.rendered;
    EXPECT_EQ(second->to_string(), c.rendered);
  }
}

TEST(PipelineAnnotation, CanonicalFlowSpecCarriesNonDefaultModels) {
  // The paper's flow is the paper's model: its canonical rendering adds
  // no annotation. Another model is named on its model-reading passes,
  // and the annotated spec keeps it through a parse and a canonical
  // re-rendering.
  for (const std::string& assign : test::kAssignPasses) {
    exec::Result<flow::Pipeline> plain =
        flow::parse_pipeline(test::paper_flow(assign));
    ASSERT_TRUE(plain.ok()) << assign;
    EXPECT_EQ(plain->to_string().find('@'), std::string::npos) << assign;
  }

  const std::string annotated =
      annotated_flow("assign:ranking(0.5)", FaultModelSpec::stuckat());
  exec::Result<flow::Pipeline> pipeline = flow::parse_pipeline(annotated);
  ASSERT_TRUE(pipeline.ok()) << annotated;
  EXPECT_EQ(pipeline->to_string(), annotated);
  EXPECT_NE(annotated.find("assign:ranking(0.5)@stuckat"), std::string::npos)
      << annotated;
  EXPECT_NE(annotated.find("error_rate@stuckat"), std::string::npos)
      << annotated;

  // Conventional assignment never consults the model (its pass refuses
  // an annotation): only the trailing error_rate pass carries one.
  const std::string conventional =
      annotated_flow("assign:conventional", FaultModelSpec::stuckat());
  exec::Result<flow::Pipeline> reparsed = flow::parse_pipeline(conventional);
  ASSERT_TRUE(reparsed.ok()) << conventional;
  EXPECT_EQ(reparsed->to_string(), conventional);
  EXPECT_EQ(conventional.find("assign:conventional@"), std::string::npos)
      << conventional;
  EXPECT_NE(conventional.find("error_rate@stuckat"), std::string::npos)
      << conventional;
}

// --- end-to-end flow integration ------------------------------------------

/// Two outputs over `n` inputs, 40% DCs.
IncompleteSpec seeded_flow_spec(std::uint64_t seed, unsigned n) {
  Rng rng(seed);
  IncompleteSpec spec("fmtest", n, 2);
  for (unsigned o = 0; o < 2; ++o)
    spec.output(o) = random_ternary(n, 0.4, rng);
  return spec;
}

IncompleteSpec flow_test_spec() { return seeded_flow_spec(9011, 5); }

/// Runs `pipeline` on a fresh Design of `spec` into `design`.
exec::Status run_pipeline(const std::string& pipeline,
                          const IncompleteSpec& spec,
                          std::optional<flow::Design>& design) {
  design.emplace(spec);
  exec::Result<flow::Pipeline> parsed = flow::parse_pipeline(pipeline);
  EXPECT_TRUE(parsed.ok()) << pipeline << ": " << parsed.status().message();
  if (!parsed.ok()) return parsed.status();
  return parsed->run(*design);
}

TEST(FlowFaultModel, ReportStampsNonDefaultModels) {
  const IncompleteSpec spec = flow_test_spec();

  std::optional<flow::Design> plain;
  ASSERT_TRUE(
      run_pipeline(test::paper_flow("assign:ranking(0.5)"), spec, plain).ok());
  EXPECT_EQ(plain->report.to_json().find("\"fault_model\""),
            std::string::npos);

  std::optional<flow::Design> stuck;
  ASSERT_TRUE(run_pipeline(annotated_flow("assign:ranking(0.5)",
                                          FaultModelSpec::stuckat()),
                           spec, stuck)
                  .ok());
  EXPECT_NE(stuck->report.to_json().find("\"fault_model\": \"stuckat\""),
            std::string::npos)
      << stuck->report.to_json();
}

TEST(FlowFaultModel, WeightCountMismatchIsRejectedUpFront) {
  const IncompleteSpec spec = flow_test_spec();  // 5 inputs
  std::optional<flow::Design> design;
  const exec::Status status = run_pipeline(
      annotated_flow("assign:ranking(0.5)",
                     FaultModelSpec::bitflip_weighted({1.0, 0.5})),
      spec, design);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("needs 5 weights, got 2"),
            std::string::npos)
      << status.message();
  EXPECT_TRUE(design->report.phases.empty());
}

TEST(FlowFaultModel, FlipCountAboveInputsIsRejectedUpFront) {
  // bitflip(5) on a 4-input parity: no pass may run, so no pipeline starts.
  IncompleteSpec spec("parity4", 4, 1);
  for (std::uint32_t m = 0; m < 16; ++m)
    if (std::popcount(m) % 2) spec.output(0).set_phase(m, Phase::kOne);
  obs::set_events_capture(true);
  (void)obs::drain_events();
  std::optional<flow::Design> design;
  const exec::Status status =
      run_pipeline(annotated_flow("assign:ranking(0.5)",
                                  FaultModelSpec::bitflip(5)),
                   spec, design);
  const std::vector<std::string> events = obs::drain_events();
  obs::set_events_capture(false);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(
                "bitflip(5) needs at least 5 inputs, spec has 4"),
            std::string::npos)
      << status.message();
  EXPECT_TRUE(design->report.phases.empty());
  for (const std::string& event : events)
    EXPECT_EQ(event.find("\"pipeline.begin\""), std::string::npos) << event;
}

void expect_same_assignment(const AssignmentResult& a,
                            const AssignmentResult& b,
                            const std::string& where) {
  EXPECT_EQ(a.dc_before, b.dc_before) << where;
  EXPECT_EQ(a.assigned, b.assigned) << where;
  EXPECT_EQ(a.assigned_on, b.assigned_on) << where;
}

TEST(FlowFaultModel, UniformWeightsReproduceDefaultDecisions) {
  // bitflip_weighted with uniform weights produces the same event masses
  // as the paper's model, so every policy must make the very same
  // assignment decisions under it — and the weighted exact rate reduces to
  // the unweighted one.
  const char* const cases[] = {
      "assign:ranking(0)", "assign:ranking(0.3)",       "assign:ranking(1)",
      "assign:lcf(0.55)",  "assign:lcf(0.55,balanced)", "assign:all",
  };
  const struct {
    std::uint64_t seed;
    unsigned n;
  } specs[] = {{9011, 5}, {9012, 6}, {9013, 7}, {9014, 8}};
  for (const auto& s : specs) {
    const IncompleteSpec spec = seeded_flow_spec(s.seed, s.n);
    for (const char* assign : cases) {
      const std::string where =
          assign + std::string(" seed=") + std::to_string(s.seed);
      std::optional<flow::Design> weighted;
      ASSERT_TRUE(run_pipeline(annotated_flow(assign,
                                              FaultModelSpec::bitflip_weighted(
                                                  std::vector<double>(s.n, 1.0))),
                               spec, weighted)
                      .ok())
          << where;
      std::optional<flow::Design> base;
      ASSERT_TRUE(run_pipeline(test::paper_flow(assign), spec, base).ok())
          << where;
      for (unsigned o = 0; o < 2; ++o)
        EXPECT_EQ(weighted->working().output(o), base->working().output(o))
            << where << " output " << o;
      expect_same_assignment(weighted->assignment, base->assignment, where);
      EXPECT_DOUBLE_EQ(weighted->error_rate, base->error_rate) << where;
    }
  }
}

// FNV-1a over the working on/dc words after each k >= 2 assign pass on
// synthetic specs of the paper's kind (70% DC, C^f = 0.55). The literal was
// computed with the C(n,k)-probe events, so any change to a k >= 2
// decision moves it.
TEST(FlowFaultModel, KbitDecisionFingerprint) {
  const char* const steps[] = {
      "assign:ranking(0.3)@bitflip(2)",
      "assign:ranking(1)@bitflip(2)",
      "assign:lcf(0.55)@bitflip(2)",
      "assign:ranking(0.5)@bitflip(3)",
  };
  Rng rng(9016);
  std::uint64_t hash = kFnv1aOffset;
  for (unsigned n = 12; n <= 16; ++n) {
    const IncompleteSpec spec =
        generate_spec("kbit", options_for_target(n, 0.7, 0.55), rng);
    for (const char* step : steps) {
      exec::Result<flow::Pipeline> pipeline = flow::parse_pipeline(step);
      ASSERT_TRUE(pipeline.ok()) << pipeline.status().message();
      flow::Design design(spec);
      ASSERT_TRUE(pipeline->run(design).ok()) << step << " n=" << n;
      for (unsigned o = 0; o < spec.num_outputs(); ++o) {
        const TernaryTruthTable& f = design.working().output(o);
        for (const BitVec* bits : {&f.on_bits(), &f.dc_bits()})
          for (std::size_t w = 0; w < bits->num_words(); ++w)
            hash = fnv1a_u64(bits->data()[w], hash);
      }
    }
  }
  EXPECT_EQ(hash, 0x189050f7e8749b1bull);
}

// The reliability sweep's steps for several models, all on ONE Design, so
// every model's DC candidates are asked for again and again and the model
// switches back and forth (bitflip(2) -> stuckat -> bitflip(2), and the
// default before and after). Every step must decide exactly like a fresh
// Design running that step alone, and FNV-1a over the working on/dc words
// after every step pins the decisions themselves.
TEST(FlowFaultModel, SweepReuseFingerprint) {
  std::vector<std::string> steps;
  for (const char* f : {"0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7",
                        "0.8", "0.9", "1"})
    steps.push_back(std::string("assign:ranking(") + f + ")");
  for (const char* step :
       {"assign:lcf(0.55)", "assign:ranking_inc(0.5)",
        "assign:lcf(0.55,balanced)", "assign:ranking(0.35)", "assign:all"})
    steps.push_back(step);
  Rng rng(9017);
  std::uint64_t hash = kFnv1aOffset;
  for (unsigned n = 12; n <= 16; ++n) {
    const IncompleteSpec spec =
        generate_spec("reuse", options_for_target(n, 0.7, 0.55), rng);
    std::string weighted = "@bitflip_weighted(";
    for (unsigned j = 0; j < n; ++j)
      weighted += (j == 0 ? "" : ",") + std::to_string(1 + j % 3);
    weighted += ")";
    flow::Design design(spec);
    for (const std::string& model :
         {std::string(), std::string("@bitflip(2)"), std::string("@stuckat"),
          std::string("@bitflip(2)"), weighted, std::string()}) {
      for (const std::string& step : steps) {
        const std::string where = step + model + " n=" + std::to_string(n);
        exec::Result<flow::Pipeline> pipeline =
            flow::parse_pipeline(step + model);
        ASSERT_TRUE(pipeline.ok()) << pipeline.status().message();
        ASSERT_TRUE(pipeline->run(design).ok()) << where;
        flow::Design fresh(spec);
        ASSERT_TRUE(pipeline->run(fresh).ok()) << where;
        ASSERT_EQ(design.working(), fresh.working()) << where;
        expect_same_assignment(design.assignment, fresh.assignment, where);
        for (unsigned o = 0; o < spec.num_outputs(); ++o) {
          const TernaryTruthTable& f = design.working().output(o);
          for (const BitVec* bits : {&f.on_bits(), &f.dc_bits()})
            for (std::size_t w = 0; w < bits->num_words(); ++w)
              hash = fnv1a_u64(bits->data()[w], hash);
        }
      }
    }
  }
  EXPECT_EQ(hash, 0x4409f0c60da885bfull);
}

TEST(FlowFaultModel, IncrementalRankingFallsBackToStaticRanking) {
  // Incremental maintenance exists for bitflip(1) only; under any other
  // model assign:ranking_inc must decide exactly like assign:ranking.
  const IncompleteSpec spec = seeded_flow_spec(9015, 7);
  for (const char* model : {"stuckat", "bitflip(2)"}) {
    for (const char* fraction : {"0.25", "0.5", "1"}) {
      const std::string suffix =
          std::string("(") + fraction + ")@" + model;
      exec::Result<flow::Pipeline> inc =
          flow::parse_pipeline("assign:ranking_inc" + suffix);
      exec::Result<flow::Pipeline> ranking =
          flow::parse_pipeline("assign:ranking" + suffix);
      ASSERT_TRUE(inc.ok()) << inc.status().message();
      ASSERT_TRUE(ranking.ok()) << ranking.status().message();
      flow::Design a(spec);
      flow::Design b(spec);
      ASSERT_TRUE(inc->run(a).ok()) << suffix;
      ASSERT_TRUE(ranking->run(b).ok()) << suffix;
      EXPECT_GT(a.assignment.assigned, 0u) << suffix;
      for (unsigned o = 0; o < 2; ++o)
        EXPECT_EQ(a.working().output(o), b.working().output(o))
            << suffix << " output " << o;
      expect_same_assignment(a.assignment, b.assignment, suffix);
      EXPECT_EQ(a.fault_model_label, b.fault_model_label) << suffix;
    }
  }
}

TEST(FlowFaultModel, AnnotatedDefaultModelOnlySetsTheLabel) {
  // An explicit @bitflip decides through the same FaultModel core as the
  // unannotated pass, but still names the model in the report (and hence
  // the canonical spec / serve-cache key).
  const IncompleteSpec spec = flow_test_spec();
  exec::Result<flow::Pipeline> annotated = flow::parse_pipeline(
      "assign:ranking(0.5)@bitflip | espresso | factor | aig | map:power | "
      "error_rate");
  ASSERT_TRUE(annotated.ok()) << annotated.status().message();
  flow::Design design(spec);
  ASSERT_TRUE(annotated->run(design).ok());
  EXPECT_EQ(design.fault_model_label, "bitflip");

  exec::Result<flow::Pipeline> plain = flow::parse_pipeline(
      "assign:ranking(0.5) | espresso | factor | aig | map:power | "
      "error_rate");
  ASSERT_TRUE(plain.ok());
  flow::Design base(spec);
  ASSERT_TRUE(plain->run(base).ok());
  EXPECT_TRUE(base.fault_model_label.empty());
  // Identical synthesis either way — the annotation is metadata only.
  for (unsigned o = 0; o < 2; ++o)
    EXPECT_EQ(design.working().output(o), base.working().output(o));
}

TEST(FlowFaultModel, DesignCachesModelInstances) {
  const IncompleteSpec spec = flow_test_spec();
  flow::Design design(spec);
  const FaultModel& a = design.fault_model(FaultModelSpec::stuckat());
  const FaultModel& b = design.fault_model(FaultModelSpec::stuckat());
  EXPECT_EQ(&a, &b);
  const FaultModel& c = design.fault_model(FaultModelSpec::bitflip(2));
  EXPECT_NE(&a, &c);
  EXPECT_EQ(c.model_spec().k(), 2u);
}

}  // namespace
}  // namespace rdc
