#include "mapper/power.hpp"

#include <bit>
#include <stdexcept>

#include "common/bits.hpp"

namespace rdc {

std::vector<double> net_probabilities(const Netlist& netlist) {
  const unsigned n = netlist.num_inputs();
  if (n > TernaryTruthTable::kMaxInputs)
    throw std::invalid_argument("net_probabilities: too many inputs");
  const std::uint32_t vectors = num_minterms(n);
  const std::uint64_t mask = sim_word_mask(n);
  std::vector<std::uint64_t> values(netlist.num_nets());
  std::vector<std::uint64_t> ones(netlist.num_nets(), 0);
  for (std::size_t block = 0; block < (vectors + 63) / 64; ++block) {
    netlist.simulate_block(block, values);
    for (std::uint32_t net = 0; net < netlist.num_nets(); ++net)
      ones[net] += std::popcount(values[net] & mask);
  }
  std::vector<double> p(netlist.num_nets());
  for (std::uint32_t net = 0; net < netlist.num_nets(); ++net)
    p[net] = static_cast<double>(ones[net]) / vectors;
  return p;
}

PowerReport estimate_power(const Netlist& netlist, const CellLibrary& lib) {
  const std::vector<double> prob = net_probabilities(netlist);
  const std::vector<double> load = netlist.net_loads(lib);

  // Map each net to the internal energy of its driving cell (primary inputs
  // have no driver).
  std::vector<double> internal(netlist.num_nets(), 0.0);
  for (const Gate& g : netlist.gates())
    internal[g.output_net] = lib.cell(g.kind).internal_energy;

  PowerReport report;
  for (std::uint32_t net = 0; net < netlist.num_nets(); ++net) {
    const double alpha = 2.0 * prob[net] * (1.0 - prob[net]);
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
