#include "io/blif.hpp"

#include <ostream>
#include <sstream>

#include "espresso/espresso.hpp"
#include "tt/ternary_function.hpp"

namespace rdc {
namespace {

std::string net_name(const Netlist& netlist, std::uint32_t net) {
  std::string name(1, net < netlist.num_inputs() ? 'i' : 'n');
  name += std::to_string(net);
  return name;
}

/// Minimal SOP rows of one cell function over its (<= 4) pins.
Cover cell_cover(CellKind kind, unsigned num_inputs) {
  TernaryTruthTable tt(num_inputs == 0 ? 1 : num_inputs);
  if (num_inputs == 0) {
    // Tie cells: constant over a dummy variable.
    if (evaluate_cell(kind, std::span<const bool>{})) {
      tt.set_phase(0, Phase::kOne);
      tt.set_phase(1, Phase::kOne);
    }
  } else {
    bool pins[4];
    for (std::uint32_t m = 0; m < tt.size(); ++m) {
      for (unsigned j = 0; j < num_inputs; ++j) pins[j] = (m >> j) & 1u;
      if (evaluate_cell(kind, {pins, num_inputs}))
        tt.set_phase(m, Phase::kOne);
    }
  }
  return minimize(tt);
}

}  // namespace

void write_blif(const Netlist& netlist, const std::string& model_name,
                std::ostream& out) {
  out << ".model " << model_name << "\n";
  out << ".inputs";
  for (unsigned i = 0; i < netlist.num_inputs(); ++i)
    out << " " << net_name(netlist, i);
  out << "\n.outputs";
  for (std::size_t o = 0; o < netlist.outputs().size(); ++o) out << " o" << o;
  out << "\n";

  for (const Gate& g : netlist.gates()) {
    const auto num_inputs = static_cast<unsigned>(g.fanins.size());
    out << ".names";
    for (const std::uint32_t f : g.fanins) out << " " << net_name(netlist, f);
    out << " " << net_name(netlist, g.output_net) << "\n";
    const Cover cover = cell_cover(g.kind, num_inputs);
    if (num_inputs == 0) {
      // Tie cell: constant-1 table is a single "1" row, constant-0 is an
      // empty table.
      if (!cover.empty_cover()) out << "1\n";
      continue;
    }
    for (const Cube& c : cover.cubes())
      out << c.to_string(num_inputs) << " 1\n";
  }

  // Output aliases.
  for (std::size_t o = 0; o < netlist.outputs().size(); ++o) {
    out << ".names " << net_name(netlist, netlist.outputs()[o]) << " o" << o
        << "\n1 1\n";
  }
  out << ".end\n";
}

std::string to_blif(const Netlist& netlist, const std::string& model_name) {
  std::ostringstream out;
  write_blif(netlist, model_name, out);
  return out.str();
}

}  // namespace rdc
