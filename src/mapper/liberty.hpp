// Liberty-subset (.lib) parser.
//
// Loads a standard-cell library from the documented subset of the Liberty
// format:
//
//   library(<name>) {
//     cell(<name>) {
//       area : <um^2>;
//       cell_leakage_power : <nW>;
//       internal_energy : <fJ>;          /* rdcsyn extension */
//       pin(<name>) {
//         direction : input;
//         capacitance : <fF>;
//       }
//       pin(<name>) {
//         direction : output;
//         function : "<boolean expression over input pins>";
//         timing() {
//           intrinsic_delay : <ps>;
//           load_slope : <ps/fF>;
//         }
//       }
//     }
//   }
//
// The cell's logic function is parsed (operators ! & | ^ and parentheses)
// and matched against the mapper's structural cell kinds by truth table;
// cells computing functions outside the supported kinds are rejected with
// a diagnostic. Comments (/* */ and //) are ignored.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <string>

#include "mapper/cell_library.hpp"

namespace rdc {

/// Parses a Liberty document. Throws std::runtime_error with a
/// line-numbered message on syntax errors or unsupported cell functions.
CellLibrary parse_liberty(std::istream& in);
CellLibrary parse_liberty_string(const std::string& text);
CellLibrary load_liberty(const std::filesystem::path& path);

}  // namespace rdc
