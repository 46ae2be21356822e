// Tests for the Liberty-subset parser; the test-side writer
// (oracles/liberty_writer.hpp) spells every cell function for it.
#include <gtest/gtest.h>

#include <sstream>

#include "mapper/liberty.hpp"
#include "oracles/liberty_writer.hpp"

namespace rdc {
namespace {

TEST(Liberty, RoundTripsBuiltinLibrary) {
  const CellLibrary& original = CellLibrary::generic70();
  std::ostringstream out;
  oracle::write_liberty(original, "generic70", out);
  const CellLibrary parsed = parse_liberty_string(out.str());
  ASSERT_EQ(parsed.cells().size(), original.cells().size());
  for (std::size_t i = 0; i < original.cells().size(); ++i) {
    const Cell& a = original.cells()[i];
    const Cell& b = parsed.cells()[i];
    EXPECT_EQ(a.kind, b.kind) << a.name;
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.num_inputs, b.num_inputs) << a.name;
    EXPECT_DOUBLE_EQ(a.area, b.area) << a.name;
    EXPECT_DOUBLE_EQ(a.input_cap, b.input_cap) << a.name;
    EXPECT_DOUBLE_EQ(a.intrinsic_delay, b.intrinsic_delay) << a.name;
    EXPECT_DOUBLE_EQ(a.load_slope, b.load_slope) << a.name;
    EXPECT_DOUBLE_EQ(a.leakage, b.leakage) << a.name;
    EXPECT_DOUBLE_EQ(a.internal_energy, b.internal_energy) << a.name;
  }
}

TEST(Liberty, ParsesMinimalLibrary) {
  const std::string text = R"lib(
// a one-cell library
library(tiny) {
  time_unit : "1ps";  /* ignored attribute */
  cell(MYINV) {
    area : 2.5;
    cell_leakage_power : 0.7;
    pin(A) { direction : input; capacitance : 1.5; }
    pin(Y) {
      direction : output;
      function : "!A";
      timing() { intrinsic_delay : 9.0; load_slope : 2.25; }
    }
  }
}
)lib";
  const CellLibrary lib = parse_liberty_string(text);
  ASSERT_EQ(lib.cells().size(), 1u);
  const Cell& inv = lib.cell(CellKind::kInv);
  EXPECT_EQ(inv.name, "MYINV");
  EXPECT_DOUBLE_EQ(inv.area, 2.5);
  EXPECT_DOUBLE_EQ(inv.input_cap, 1.5);
  EXPECT_DOUBLE_EQ(inv.intrinsic_delay, 9.0);
  EXPECT_DOUBLE_EQ(inv.load_slope, 2.25);
}

TEST(Liberty, RecognizesFunctionsByTruthTable) {
  // Same AOI21 function written differently still matches.
  const std::string text = R"lib(
library(l) {
  cell(INV) {
    area : 1;
    pin(A) { direction : input; capacitance : 1; }
    pin(Y) { direction : output; function : "A'"; }
  }
  cell(WEIRD_AOI) {
    area : 2;
    pin(A) { direction : input; capacitance : 1; }
    pin(B) { direction : input; capacitance : 1; }
    pin(C) { direction : input; capacitance : 1; }
    pin(Y) { direction : output; function : "!C & !(A B)"; }
  }
}
)lib";
  const CellLibrary lib = parse_liberty_string(text);
  EXPECT_EQ(lib.cell(CellKind::kAoi21).name, "WEIRD_AOI");
  EXPECT_EQ(lib.cell(CellKind::kInv).name, "INV");  // postfix negation
}

TEST(Liberty, RejectsUnsupportedFunction) {
  const std::string text = R"lib(
library(l) {
  cell(INV) {
    area : 1;
    pin(A) { direction : input; capacitance : 1; }
    pin(Y) { direction : output; function : "!A"; }
  }
  cell(MAJ3) {
    area : 2;
    pin(A) { direction : input; capacitance : 1; }
    pin(B) { direction : input; capacitance : 1; }
    pin(C) { direction : input; capacitance : 1; }
    pin(Y) { direction : output; function : "(A&B)|(A&C)|(B&C)"; }
  }
}
)lib";
  EXPECT_THROW(parse_liberty_string(text), std::runtime_error);
}

TEST(Liberty, RequiresInverter) {
  const std::string text = R"lib(
library(l) {
  cell(AND) {
    area : 1;
    pin(A) { direction : input; capacitance : 1; }
    pin(B) { direction : input; capacitance : 1; }
    pin(Y) { direction : output; function : "A&B"; }
  }
}
)lib";
  EXPECT_THROW(parse_liberty_string(text), std::invalid_argument);
}

TEST(Liberty, RejectsSyntaxErrors) {
  EXPECT_THROW(parse_liberty_string("not_a_library { }"), std::runtime_error);
  EXPECT_THROW(parse_liberty_string("library(x) { cell(y) { area 1; } }"),
               std::runtime_error);
  EXPECT_THROW(parse_liberty_string("library(x) {"), std::runtime_error);
}

TEST(Liberty, RejectsBadPinReference) {
  const std::string text = R"lib(
library(l) {
  cell(INV) {
    area : 1;
    pin(A) { direction : input; capacitance : 1; }
    pin(Y) { direction : output; function : "!Q"; }
  }
}
)lib";
  EXPECT_THROW(parse_liberty_string(text), std::runtime_error);
}

}  // namespace
}  // namespace rdc
