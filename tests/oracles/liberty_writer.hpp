// Liberty writer for the subset mapper/liberty.hpp parses, kept as a test
// oracle: it spells every structural cell kind's function, so the parser's
// round-trip tests can feed it each one.
#pragma once

#include <iosfwd>
#include <string>

#include "mapper/cell_library.hpp"

namespace rdc::oracle {

/// Writes `lib` as a Liberty document named `name`; parse_liberty reads it
/// back to the same cells.
void write_liberty(const CellLibrary& lib, const std::string& name,
                   std::ostream& out);

}  // namespace rdc::oracle
