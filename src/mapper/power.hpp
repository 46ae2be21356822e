// Power analysis of mapped netlists.
//
// Dynamic power uses exact signal probabilities from one exhaustive
// Netlist::simulate() sweep: all 2^n vectors, 64 per word, gate by gate,
// so the cost is gates x 2^n/64 word operations.
// Toggles use the standard temporal-independence model alpha = 2 p (1-p);
// reported in uW assuming Vdd = 1 V and f = 1 GHz, so 1 fJ/cycle = 1 uW.
// Leakage comes straight from the library.
#pragma once

#include "mapper/cell_library.hpp"
#include "mapper/netlist.hpp"

namespace rdc {

struct PowerReport {
  double dynamic_uw = 0.0;
  double leakage_nw = 0.0;
  /// Combined figure with leakage converted to uW.
  double total_uw() const { return dynamic_uw + leakage_nw * 1e-3; }
};

PowerReport estimate_power(const Netlist& netlist, const CellLibrary& lib);

/// One-stop report used by the experiment harnesses.
struct NetlistStats {
  std::size_t gates = 0;
  double area = 0.0;      ///< um^2
  double delay_ps = 0.0;  ///< critical path
  double power_uw = 0.0;  ///< dynamic + leakage
};

NetlistStats analyze_netlist(const Netlist& netlist, const CellLibrary& lib);

}  // namespace rdc
