#include "mapper/power.hpp"

#include <cstdint>
#include <vector>

#include "common/bits.hpp"

namespace rdc {

PowerReport estimate_power(const Netlist& netlist, const CellLibrary& lib) {
  // Exact signal probability of every net (n <= 20).
  const std::vector<std::uint64_t> ones = netlist.simulate().ones;
  const double vectors = num_minterms(netlist.num_inputs());
  const std::vector<double> load = netlist.net_loads(lib);

  // Map each net to the internal energy of its driving cell (primary inputs
  // have no driver).
  std::vector<double> internal(netlist.num_nets(), 0.0);
  for (const Gate& g : netlist.gates())
    internal[g.output_net] = lib.cell(g.kind).internal_energy;

  PowerReport report;
  for (std::uint32_t net = 0; net < netlist.num_nets(); ++net) {
    const double p = static_cast<double>(ones[net]) / vectors;
    const double alpha = 2.0 * p * (1.0 - p);
    report.dynamic_uw += alpha * (0.5 * load[net] + internal[net]);
  }
  report.leakage_nw = netlist.leakage(lib);
  return report;
}

NetlistStats analyze_netlist(const Netlist& netlist, const CellLibrary& lib) {
  NetlistStats stats;
  stats.gates = netlist.gate_count();
  stats.area = netlist.area(lib);
  stats.delay_ps = netlist.critical_delay(lib);
  stats.power_uw = estimate_power(netlist, lib).total_uw();
  return stats;
}

}  // namespace rdc
