// ASCII AIGER (aag) reader/writer for and-inverter graphs.
//
// The combinational subset of AIGER 1.9: header `aag M I L O A` with L = 0,
// input definitions, output literals, and AND-gate rows. This is the lingua
// franca for exchanging AIGs with ABC and friends.
#pragma once

#include <iosfwd>
#include <string>

#include "aig/aig.hpp"

namespace rdc {

/// Writes the AIG in ascii AIGER format.
void write_aiger(const Aig& aig, std::ostream& out);

/// Parses an ascii AIGER document (combinational: no latches). Throws
/// std::runtime_error on malformed input.
Aig parse_aiger(std::istream& in);
Aig parse_aiger_string(const std::string& text);

}  // namespace rdc
