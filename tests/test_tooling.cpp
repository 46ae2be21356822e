// Tests for the auxiliary tooling: testbench generation and parser
// robustness against malformed inputs.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

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

std::string testbench_text(const Netlist& nl, const std::string& module) {
  std::ostringstream out;
  write_testbench(nl, module, out);
  return out.str();
}

TEST(Testbench, ContainsAllExhaustiveChecks) {
  Rng rng(951);
  TernaryTruthTable f(3);
  for (std::uint32_t m = 0; m < 8; ++m)
    f.set_phase(m, rng.flip(0.5) ? Phase::kOne : Phase::kZero);
  Aig aig(3);
  aig.add_output(aig.build(factor(minimize(f))));
  const Netlist nl = map_aig(aig, CellLibrary::generic70());

  const std::string tb = testbench_text(nl, "dut_mod");
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
  const std::string tb = testbench_text(nl, "x");
  // XOR truth table rows.
  EXPECT_NE(tb.find("check(2'd0, 1'b0);"), std::string::npos);
  EXPECT_NE(tb.find("check(2'd1, 1'b1);"), std::string::npos);
  EXPECT_NE(tb.find("check(2'd2, 1'b1);"), std::string::npos);
  EXPECT_NE(tb.find("check(2'd3, 1'b0);"), std::string::npos);
}

// 70 outputs do not fit a 64-bit word: each expected response is a 70-digit
// binary literal, output 0 the last digit.
TEST(Testbench, WideOutputsAreBinaryLiterals) {
  Netlist nl(2);
  const std::uint32_t a = nl.input_net(0), b = nl.input_net(1);
  const std::uint32_t nets[] = {a, b, nl.add_gate(CellKind::kAnd2, {a, b}),
                                nl.add_gate(CellKind::kXor2, {a, b})};
  for (unsigned o = 0; o < 70; ++o) nl.add_output(nets[o % 4]);
  const std::string tb = testbench_text(nl, "wide");
  for (std::uint32_t m = 0; m < 4; ++m) {
    const std::string call = "check(2'd" + std::to_string(m) + ", 70'b";
    const std::size_t pos = tb.find(call);
    ASSERT_NE(pos, std::string::npos) << call;
    const std::string digits = tb.substr(pos + call.size(), 70);
    ASSERT_EQ(tb.substr(pos + call.size() + 70, 3), ");\n");
    // Output 69 is nets[1] (input 1), output 0 is nets[0] (input 0).
    EXPECT_EQ(digits.front(), (m & 2) ? '1' : '0') << "vector " << m;
    EXPECT_EQ(digits.back(), (m & 1) ? '1' : '0') << "vector " << m;
    // Output 2 is the AND, output 3 the XOR.
    EXPECT_EQ(digits[67], (m == 3) ? '1' : '0') << "vector " << m;
    EXPECT_EQ(digits[66], (m == 1 || m == 2) ? '1' : '0') << "vector " << m;
  }
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
