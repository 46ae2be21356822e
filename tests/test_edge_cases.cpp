// Edge-case and failure-injection tests across modules: degenerate sizes,
// constant functions, pass-through outputs, file-level round trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "aig/balance.hpp"
#include "aig/simulate.hpp"
#include "common/rng.hpp"
#include "decomp/renode.hpp"
#include "espresso/espresso.hpp"
#include "flow/synthesis_flow.hpp"
#include "flow_specs.hpp"
#include "io/aiger.hpp"
#include "mapper/liberty.hpp"
#include "mapper/power.hpp"
#include "mapper/tree_map.hpp"
#include "oracles/liberty_writer.hpp"
#include "pla/pla_io.hpp"
#include "reliability/assignment.hpp"
#include "reliability/complexity.hpp"
#include "reliability/error_rate.hpp"
#include "sop/factor.hpp"
#include "synthetic/generator.hpp"
#include "tt/neighbor_stats.hpp"

namespace rdc {
namespace {

std::filesystem::path temp_file(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

TEST(EdgeCases, OneInputFunction) {
  TernaryTruthTable f(1);
  f.set_phase(0, Phase::kOne);
  f.set_phase(1, Phase::kDc);
  EXPECT_EQ(f.size(), 2u);
  EXPECT_EQ(NeighborTable(f).at(1).on, 1u);
  const ErrorBounds bounds = exact_error_bounds(f);
  EXPECT_EQ(bounds.base_error, 0u);
  // The DC's single neighbor is on: assigning to on masks the error
  // (min 0), assigning to off exposes it (max 1).
  EXPECT_EQ(bounds.min_dc_error, 0u);
  EXPECT_EQ(bounds.max_dc_error, 1u);
  ranking_assign(f, 1.0);
  EXPECT_TRUE(f.is_on(1));
}

TEST(EdgeCases, TwentyInputTruthTableSmoke) {
  // The documented upper bound must actually construct and operate.
  TernaryTruthTable f(20);
  f.set_phase(0, Phase::kOne);
  f.set_phase((1u << 20) - 1, Phase::kDc);
  EXPECT_EQ(f.on_count(), 1u);
  EXPECT_EQ(f.dc_count(), 1u);
  EXPECT_EQ(NeighborTable(f).at(1).on, 1u);
}

TEST(EdgeCases, AllDcFunctionThroughFlow) {
  // Everything is a don't care: any implementation is correct and the
  // error rate is 0 (no care sources).
  IncompleteSpec spec("alldc", 4, 2);
  for (auto& f : spec.outputs())
    for (std::uint32_t m = 0; m < f.size(); ++m)
      f.set_phase(m, Phase::kDc);
  const FlowResult result =
      run_flow(spec, test::paper_flow("assign:ranking(0.5)"));
  EXPECT_DOUBLE_EQ(result.error_rate, 0.0);
  for (unsigned o = 0; o < 2; ++o)
    EXPECT_TRUE(result.implementation.output(o).fully_specified());
}

TEST(EdgeCases, ConstantOutputsThroughFlow) {
  IncompleteSpec spec("consts", 3, 2);
  // Output 0 constant 0, output 1 constant 1.
  for (std::uint32_t m = 0; m < 8; ++m)
    spec.output(1).set_phase(m, Phase::kOne);
  const FlowResult result =
      run_flow(spec, test::paper_flow("assign:conventional"));
  EXPECT_DOUBLE_EQ(result.error_rate, 0.0);
  for (std::uint32_t m = 0; m < 8; ++m) {
    const auto out = result.netlist.evaluate(m);
    EXPECT_FALSE(out.at(0));
    EXPECT_TRUE(out.at(1));
  }
}

TEST(EdgeCases, PassthroughAndInverterOutputs) {
  IncompleteSpec spec("wire", 2, 2);
  for (std::uint32_t m = 0; m < 4; ++m) {
    spec.output(0).set_phase(m, (m & 1) ? Phase::kOne : Phase::kZero);
    spec.output(1).set_phase(m, (m & 1) ? Phase::kZero : Phase::kOne);
  }
  const FlowResult result =
      run_flow(spec, test::paper_flow("assign:conventional"));
  // x0 passes through unprotected: every flip of x0 propagates; the other
  // pin is fully masked. Rate per output = 1/2.
  EXPECT_DOUBLE_EQ(result.error_rate, 0.5);
  EXPECT_LE(result.stats.gates, 1u);  // one inverter at most
}

TEST(EdgeCases, PlaFileRoundTripOnDisk) {
  Rng rng(801);
  IncompleteSpec spec("disk", 5, 3);
  for (auto& f : spec.outputs())
    for (std::uint32_t m = 0; m < f.size(); ++m)
      f.set_phase(m, static_cast<Phase>(rng.below(3)));
  const auto path = temp_file("rdcsyn_roundtrip.pla");
  save_pla(spec, path);
  const IncompleteSpec loaded = load_pla(path);
  EXPECT_EQ(loaded.name(), "rdcsyn_roundtrip");
  ASSERT_EQ(loaded.num_outputs(), spec.num_outputs());
  for (unsigned o = 0; o < spec.num_outputs(); ++o)
    EXPECT_EQ(loaded.output(o), spec.output(o));
  std::filesystem::remove(path);
}

TEST(EdgeCases, AigerFileRoundTripOnDisk) {
  Rng rng(809);
  TernaryTruthTable f(5);
  for (std::uint32_t m = 0; m < f.size(); ++m)
    f.set_phase(m, rng.flip(0.5) ? Phase::kOne : Phase::kZero);
  Aig aig(5);
  aig.add_output(aig.build(factor(minimize(f))));

  const auto path = temp_file("rdcsyn_roundtrip.aag");
  {
    std::ofstream out(path);
    write_aiger(aig, out);
  }
  std::ifstream in(path);
  const Aig loaded = parse_aiger(in);
  EXPECT_EQ(AigSimulator(loaded).output_table(0),
            AigSimulator(aig).output_table(0));
  std::filesystem::remove(path);
}

TEST(EdgeCases, LibertyFileRoundTripOnDisk) {
  const auto path = temp_file("rdcsyn_roundtrip.lib");
  {
    std::ofstream out(path);
    oracle::write_liberty(CellLibrary::generic70(), "rt", out);
  }
  const CellLibrary lib = load_liberty(path);
  EXPECT_EQ(lib.cells().size(), CellLibrary::generic70().cells().size());
  std::filesystem::remove(path);
}

TEST(EdgeCases, LibertyRejectsCellWiderThanAnySupportedKind) {
  // 32 input pins: wider than every supported cell kind (and than a
  // 32-bit truth-table index), so the function is unsupported rather than
  // evaluated.
  std::ostringstream text;
  text << "library(wide) {\n  cell(AND32) {\n    area : 1;\n";
  std::string function;
  for (int pin = 0; pin < 32; ++pin) {
    const std::string name = std::string("A").append(std::to_string(pin));
    text << "    pin(" << name << ") { direction : input; capacitance : 1; }\n";
    if (pin != 0) function += '&';
    function += name;
  }
  text << "    pin(Y) { direction : output; function : \"" << function
       << "\"; }\n  }\n}\n";
  try {
    parse_liberty_string(text.str());
    FAIL() << "a 32-input cell was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported function"),
              std::string::npos)
        << e.what();
  }
}

TEST(EdgeCases, FlowWithCustomLibraryMatchesBuiltin) {
  Rng rng(811);
  IncompleteSpec spec("lib", 5, 2);
  for (auto& f : spec.outputs())
    for (std::uint32_t m = 0; m < f.size(); ++m)
      f.set_phase(m, static_cast<Phase>(rng.below(3)));

  std::ostringstream text;
  oracle::write_liberty(CellLibrary::generic70(), "copy", text);
  const CellLibrary parsed = parse_liberty_string(text.str());

  const std::string lcf = test::paper_flow("assign:lcf(0.55)");
  const FlowResult a = run_flow(spec, lcf, &parsed);
  const FlowResult b = run_flow(spec, lcf);
  EXPECT_EQ(a.stats.gates, b.stats.gates);
  EXPECT_DOUBLE_EQ(a.stats.area, b.stats.area);
  EXPECT_DOUBLE_EQ(a.error_rate, b.error_rate);
}

TEST(EdgeCases, RankingFractionRounding) {
  // Fig. 3 assigns round(fraction * list length) entries; spot-check the
  // boundary behaviour around one half.
  TernaryTruthTable f(3);
  // Three DCs with distinct nonzero weights.
  f.set_phase(0b000, Phase::kDc);
  f.set_phase(0b011, Phase::kDc);
  f.set_phase(0b101, Phase::kDc);
  f.set_phase(0b001, Phase::kOne);
  f.set_phase(0b010, Phase::kOne);
  f.set_phase(0b100, Phase::kOne);
  f.set_phase(0b111, Phase::kOne);
  f.set_phase(0b110, Phase::kZero);
  TernaryTruthTable g = f;
  EXPECT_EQ(ranking_assign(g, 1.0 / 3.0).assigned, 1u);
  g = f;
  EXPECT_EQ(ranking_assign(g, 0.5).assigned, 2u);  // round(1.5) = 2
  g = f;
  EXPECT_EQ(ranking_assign(g, 0.0).assigned, 0u);
}

TEST(EdgeCases, IncrementalRankingZeroFraction) {
  Rng rng(821);
  TernaryTruthTable f(6);
  for (std::uint32_t m = 0; m < f.size(); ++m)
    f.set_phase(m, static_cast<Phase>(rng.below(3)));
  const TernaryTruthTable before = f;
  EXPECT_EQ(ranking_assign_incremental(f, 0.0).assigned, 0u);
  EXPECT_EQ(f, before);
}

TEST(EdgeCases, RenodeOnPassthroughNetwork) {
  Aig aig(3);
  aig.add_output(aig.input_literal(2));
  aig.add_output(aiglit::negate(aig.input_literal(0)));
  aig.add_output(aiglit::kFalse);
  const RenodeResult result = renode_and_assign(aig);
  EXPECT_EQ(result.nodes_total, 0u);
  const AigSimulator sim(result.network);
  for (std::uint32_t m = 0; m < 8; ++m) {
    EXPECT_EQ(sim.literal_value(result.network.outputs()[0], m),
              (m & 4) != 0);
    EXPECT_EQ(sim.literal_value(result.network.outputs()[1], m),
              (m & 1) == 0);
    EXPECT_FALSE(sim.literal_value(result.network.outputs()[2], m));
  }
}

TEST(EdgeCases, BalanceOnTrivialNetworks) {
  Aig aig(2);
  aig.add_output(aiglit::kTrue);
  aig.add_output(aig.input_literal(1));
  const Aig balanced = balance(aig);
  EXPECT_EQ(balanced.outputs()[0], aiglit::kTrue);
  EXPECT_EQ(balanced.outputs()[1], balanced.input_literal(1));
}

TEST(EdgeCases, GeneratorZeroDcExtremeTargets) {
  Rng rng(823);
  // Target 0 with balanced split: as parity-like as swaps can reach.
  SyntheticOptions options = options_for_target(6, 0.0, 0.0);
  options.tolerance = 0.02;
  const TernaryTruthTable f = generate_function(options, rng);
  EXPECT_LT(complexity_factor(f), 0.1);
}

TEST(EdgeCases, ComplexityFactorOfAllDc) {
  TernaryTruthTable f(4);
  for (std::uint32_t m = 0; m < 16; ++m) f.set_phase(m, Phase::kDc);
  EXPECT_DOUBLE_EQ(complexity_factor(f), 1.0);
  EXPECT_DOUBLE_EQ(expected_complexity_factor(f), 1.0);
}

TEST(EdgeCases, NetLoadsAccumulate) {
  const CellLibrary& lib = CellLibrary::generic70();
  Netlist nl(1);
  const std::uint32_t a = nl.add_gate(CellKind::kInv, {nl.input_net(0)});
  nl.add_gate(CellKind::kInv, {a});
  nl.add_gate(CellKind::kInv, {a});
  nl.add_output(a);
  const auto loads = nl.net_loads(lib);
  // Net a feeds two inverter pins plus the output's nominal load.
  EXPECT_DOUBLE_EQ(loads[a],
                   2.0 * lib.inverter().input_cap + lib.nominal_load());
}

}  // namespace
}  // namespace rdc
