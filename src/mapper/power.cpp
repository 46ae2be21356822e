#include "mapper/power.hpp"

#include <stdexcept>

#include "common/bits.hpp"
#include "common/simd.hpp"

namespace rdc {

std::vector<double> net_probabilities(const Netlist& netlist) {
  const unsigned n = netlist.num_inputs();
  if (n > TernaryTruthTable::kMaxInputs)
    throw std::invalid_argument("net_probabilities: too many inputs");
  constexpr std::size_t kWords = Netlist::kSimWords;
  const std::uint32_t vectors = num_minterms(n);
  const std::size_t blocks = (vectors + 63) / 64;
  const std::uint32_t nets = netlist.num_nets();
  std::vector<std::uint64_t> values(kWords * nets);
  std::vector<std::uint64_t> ones(nets, 0);
  for (std::size_t first = 0; first < blocks; first += kWords) {
    netlist.simulate_chunk(first, values);
    // Counts only the vectors 0 .. 2^n - 1: the bits above 2^n of a short
    // word and the words past the last block repeat earlier vectors.
    std::uint64_t mask[kWords] = {};
    for (std::size_t w = 0; w < kWords && first + w < blocks; ++w)
      mask[w] = sim_word_mask(n);
    for (std::uint32_t net = 0; net < nets; ++net)
      ones[net] += simd::popcount_and(&values[kWords * net], mask, kWords);
  }
  std::vector<double> p(nets);
  for (std::uint32_t net = 0; net < nets; ++net)
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
