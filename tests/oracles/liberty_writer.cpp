#include "oracles/liberty_writer.hpp"

#include <ostream>

namespace rdc::oracle {
namespace {

const char* canonical_function(CellKind kind) {
  switch (kind) {
    case CellKind::kInv:
      return "!A";
    case CellKind::kBuf:
      return "A";
    case CellKind::kAnd2:
      return "A & B";
    case CellKind::kNand2:
      return "!(A & B)";
    case CellKind::kOr2:
      return "A | B";
    case CellKind::kNor2:
      return "!(A | B)";
    case CellKind::kAnd3:
      return "A & B & C";
    case CellKind::kNand3:
      return "!(A & B & C)";
    case CellKind::kOr3:
      return "A | B | C";
    case CellKind::kNor3:
      return "!(A | B | C)";
    case CellKind::kAnd4:
      return "A & B & C & D";
    case CellKind::kNand4:
      return "!(A & B & C & D)";
    case CellKind::kAoi21:
      return "!((A & B) | C)";
    case CellKind::kOai21:
      return "!((A | B) & C)";
    case CellKind::kAoi22:
      return "!((A & B) | (C & D))";
    case CellKind::kOai22:
      return "!((A | B) & (C | D))";
    case CellKind::kXor2:
      return "A ^ B";
    case CellKind::kXnor2:
      return "!(A ^ B)";
    case CellKind::kTie0:
      return "0";
    case CellKind::kTie1:
      return "1";
  }
  return "0";
}

constexpr const char* kPinNames[] = {"A", "B", "C", "D"};

}  // namespace

void write_liberty(const CellLibrary& lib, const std::string& name,
                   std::ostream& out) {
  out << "/* written by rdcsyn */\n";
  out << "library(" << name << ") {\n";
  for (const Cell& cell : lib.cells()) {
    out << "  cell(" << cell.name << ") {\n";
    out << "    area : " << cell.area << ";\n";
    out << "    cell_leakage_power : " << cell.leakage << ";\n";
    out << "    internal_energy : " << cell.internal_energy << ";\n";
    for (unsigned pin = 0; pin < cell.num_inputs; ++pin) {
      out << "    pin(" << kPinNames[pin] << ") {\n";
      out << "      direction : input;\n";
      out << "      capacitance : " << cell.input_cap << ";\n";
      out << "    }\n";
    }
    out << "    pin(Y) {\n";
    out << "      direction : output;\n";
    out << "      function : \"" << canonical_function(cell.kind) << "\";\n";
    out << "      timing() {\n";
    out << "        intrinsic_delay : " << cell.intrinsic_delay << ";\n";
    out << "        load_slope : " << cell.load_slope << ";\n";
    out << "      }\n";
    out << "    }\n";
    out << "  }\n";
  }
  out << "}\n";
}

}  // namespace rdc::oracle
