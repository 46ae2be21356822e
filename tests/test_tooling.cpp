// Tests for the auxiliary tooling: testbench generation and parser
// robustness against malformed inputs.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "espresso/espresso.hpp"
#include "io/aiger.hpp"
#include "io/blif_reader.hpp"
#include "io/testbench.hpp"
#include "mapper/liberty.hpp"
#include "mapper/tree_map.hpp"
#include "pla/pla_io.hpp"
#include "sop/factor.hpp"

namespace rdc {
namespace {

TEST(Testbench, ContainsAllExhaustiveChecks) {
  Rng rng(951);
  TernaryTruthTable f(3);
  for (std::uint32_t m = 0; m < 8; ++m)
    f.set_phase(m, rng.flip(0.5) ? Phase::kOne : Phase::kZero);
  Aig aig(3);
  aig.add_output(aig.build(factor(minimize(f))));
  const Netlist nl = map_aig(aig, CellLibrary::generic70());

  const std::string tb = to_testbench(nl, "dut_mod");
  EXPECT_NE(tb.find("module dut_mod_tb;"), std::string::npos);
  EXPECT_NE(tb.find("dut_mod dut ("), std::string::npos);
  // One check per vector, with the simulator's expected value baked in.
  std::size_t checks = 0;
  for (std::size_t pos = tb.find("check("); pos != std::string::npos;
       pos = tb.find("check(", pos + 1))
    ++checks;
  EXPECT_EQ(checks, 8u + 1u);  // 8 calls + task definition mention? no:
  // the task definition line contains "task check(" which the scan counts.
}

TEST(Testbench, ExpectedValuesMatchSimulator) {
  Rng rng(953);
  TernaryTruthTable f(2);
  f.set_phase(0b01, Phase::kOne);
  f.set_phase(0b10, Phase::kOne);
  Aig aig(2);
  aig.add_output(aig.build(factor(minimize(f))));
  const Netlist nl = map_aig(aig, CellLibrary::generic70());
  const std::string tb = to_testbench(nl, "x");
  // XOR truth table rows.
  EXPECT_NE(tb.find("check(2'd0, 1'd0);"), std::string::npos);
  EXPECT_NE(tb.find("check(2'd1, 1'd1);"), std::string::npos);
  EXPECT_NE(tb.find("check(2'd2, 1'd1);"), std::string::npos);
  EXPECT_NE(tb.find("check(2'd3, 1'd0);"), std::string::npos);
}

// Parser robustness: malformed inputs must throw, never crash.
TEST(Robustness, ParsersRejectGarbage) {
  const char* garbage[] = {
      "",
      "\n\n\n",
      "garbage input !!!",
      ".i x\n.o y\n",
      "p cnf\n",
      "aag\n",
      "library {",
      ".model\n.names\n",
  };
  for (const char* text : garbage) {
    EXPECT_ANY_THROW(parse_pla_string(text, "g")) << text;
    EXPECT_ANY_THROW(parse_aiger_string(text)) << text;
    EXPECT_ANY_THROW(parse_liberty_string(text)) << text;
    EXPECT_ANY_THROW(parse_blif_string(text)) << text;
  }
}

TEST(Robustness, TruncatedDocuments) {
  EXPECT_ANY_THROW(parse_pla_string(".i 3\n", "t"));
  EXPECT_ANY_THROW(parse_aiger_string("aag 2 1 0 1"));
  EXPECT_ANY_THROW(parse_liberty_string("library(x) { cell(y) {"));
  // Declared output with no defining table.
  EXPECT_ANY_THROW(parse_blif_string(".model m\n.inputs a\n.outputs y\n"));
}

}  // namespace
}  // namespace rdc
