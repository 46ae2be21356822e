// Self-checking Verilog testbench emission for mapped netlists.
//
// The generated testbench instantiates the module written by
// write_verilog, drives either all 2^n vectors (n <= 16) or 1024 vectors
// sampled with a fixed seed, and $fatal-s on any mismatch against expected
// responses read from one Netlist::simulate() sweep — a push-button
// sign-off path in any external Verilog simulator.
#pragma once

#include <iosfwd>
#include <string>

#include "mapper/netlist.hpp"

namespace rdc {

/// Writes a testbench module `<module_name>_tb` for the netlist. Each
/// expected response is a sized binary literal, output 0 the last digit.
/// Throws std::invalid_argument for more than 20 inputs.
void write_testbench(const Netlist& netlist, const std::string& module_name,
                     std::ostream& out);

}  // namespace rdc
