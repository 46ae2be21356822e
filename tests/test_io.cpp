// Tests for the interchange formats: structural Verilog, BLIF and AIGER.
#include <gtest/gtest.h>

#include <sstream>

#include "aig/simulate.hpp"
#include "common/rng.hpp"
#include "espresso/espresso.hpp"
#include "io/aiger.hpp"
#include "io/blif.hpp"
#include "io/verilog.hpp"
#include "mapper/tree_map.hpp"
#include "sop/factor.hpp"

namespace rdc {
namespace {

/// The ascii AIGER document write_aiger emits for `aig`.
std::string aag_text(const Aig& aig) {
  std::ostringstream out;
  write_aiger(aig, out);
  return out.str();
}

Aig random_aig(unsigned n, unsigned outputs, Rng& rng) {
  Aig aig(n);
  for (unsigned o = 0; o < outputs; ++o) {
    TernaryTruthTable f(n);
    for (std::uint32_t m = 0; m < f.size(); ++m)
      f.set_phase(m, rng.flip(0.4) ? Phase::kOne : Phase::kZero);
    aig.add_output(aig.build(factor(minimize(f))));
  }
  return aig;
}

Netlist random_netlist(unsigned n, Rng& rng) {
  const Aig aig = random_aig(n, 2, rng);
  return map_aig(aig, CellLibrary::generic70());
}

TEST(Verilog, ContainsInterfaceAndCells) {
  Rng rng(301);
  const Netlist nl = random_netlist(4, rng);
  const std::string v =
      to_verilog(nl, CellLibrary::generic70(), "test_module");
  EXPECT_NE(v.find("module test_module"), std::string::npos);
  EXPECT_NE(v.find("input i0;"), std::string::npos);
  EXPECT_NE(v.find("output o0;"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  // Every used cell gets a self-contained definition.
  for (const Gate& g : nl.gates()) {
    const std::string name = CellLibrary::generic70().cell(g.kind).name;
    EXPECT_NE(v.find("module " + name), std::string::npos) << name;
  }
}

TEST(Verilog, OneInstancePerGate) {
  Rng rng(303);
  const Netlist nl = random_netlist(5, rng);
  const std::string v = to_verilog(nl, CellLibrary::generic70(), "m");
  std::size_t instances = 0;
  for (std::size_t pos = v.find(".Y("); pos != std::string::npos;
       pos = v.find(".Y(", pos + 1))
    ++instances;
  EXPECT_EQ(instances, nl.gate_count());
}

TEST(Blif, StructureAndTables) {
  Rng rng(307);
  const Netlist nl = random_netlist(4, rng);
  const std::string b = to_blif(nl, "test_model");
  EXPECT_NE(b.find(".model test_model"), std::string::npos);
  EXPECT_NE(b.find(".inputs"), std::string::npos);
  EXPECT_NE(b.find(".outputs"), std::string::npos);
  EXPECT_NE(b.find(".end"), std::string::npos);
  // One .names block per gate plus one alias per output.
  std::size_t names = 0;
  for (std::size_t pos = b.find(".names"); pos != std::string::npos;
       pos = b.find(".names", pos + 1))
    ++names;
  EXPECT_EQ(names, nl.gate_count() + nl.outputs().size());
}

TEST(Blif, TieCells) {
  Netlist nl(1);
  nl.add_output(nl.add_gate(CellKind::kTie1, {}));
  nl.add_output(nl.add_gate(CellKind::kTie0, {}));
  const std::string b = to_blif(nl, "ties");
  // TIE1 emits a constant-1 table; TIE0 an empty one.
  EXPECT_NE(b.find(".names n1\n1\n"), std::string::npos);
  EXPECT_NE(b.find(".names n2\n"), std::string::npos);
}

TEST(Aiger, WriteHasCorrectHeader) {
  Rng rng(311);
  const Aig aig = random_aig(4, 2, rng);
  const std::string text = aag_text(aig);
  std::istringstream in(text);
  std::string magic;
  std::size_t m, i, l, o, a;
  in >> magic >> m >> i >> l >> o >> a;
  EXPECT_EQ(magic, "aag");
  EXPECT_EQ(i, 4u);
  EXPECT_EQ(l, 0u);
  EXPECT_EQ(o, 2u);
  EXPECT_EQ(a, aig.num_ands());
  EXPECT_EQ(m, aig.num_nodes() - 1);
}

TEST(Aiger, RoundTripPreservesFunction) {
  Rng rng(313);
  for (int trial = 0; trial < 10; ++trial) {
    const Aig aig = random_aig(5, 3, rng);
    const Aig parsed = parse_aiger_string(aag_text(aig));
    ASSERT_EQ(parsed.num_inputs(), aig.num_inputs());
    ASSERT_EQ(parsed.outputs().size(), aig.outputs().size());
    const AigSimulator sa(aig);
    const AigSimulator sb(parsed);
    for (unsigned o = 0; o < aig.outputs().size(); ++o)
      EXPECT_EQ(sa.output_table(o), sb.output_table(o))
          << "trial " << trial << " output " << o;
  }
}

TEST(Aiger, ConstantAndPassthroughOutputs) {
  Aig aig(2);
  aig.add_output(aiglit::kTrue);
  aig.add_output(aig.input_literal(1));
  const Aig parsed = parse_aiger_string(aag_text(aig));
  EXPECT_EQ(parsed.outputs()[0], aiglit::kTrue);
  EXPECT_EQ(parsed.outputs()[1], parsed.input_literal(1));
}

TEST(Aiger, RejectsMalformedInput) {
  EXPECT_THROW(parse_aiger_string("not aiger"), std::runtime_error);
  EXPECT_THROW(parse_aiger_string("aag 1 1 1 0 0\n2\n"), std::runtime_error);
  // Reference to an undefined literal.
  EXPECT_THROW(parse_aiger_string("aag 3 1 0 1 1\n2\n6\n6 4 2\n"),
               std::runtime_error);
}

TEST(Aiger, RejectsBinaryFormat) {
  EXPECT_THROW(parse_aiger_string("aig 0 0 0 0 0\n"), std::runtime_error);
}

}  // namespace
}  // namespace rdc
