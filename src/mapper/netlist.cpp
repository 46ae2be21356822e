#include "mapper/netlist.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "common/bits.hpp"

namespace rdc {

std::uint32_t Netlist::add_gate(CellKind kind,
                                std::vector<std::uint32_t> fanins) {
  if (fanins.size() != cell_arity(kind))
    throw std::invalid_argument(
        "Netlist::add_gate: fanin count does not match the cell");
  for (const std::uint32_t f : fanins)
    if (f >= num_nets())
      throw std::out_of_range("Netlist::add_gate: fanin net not yet driven");
  const std::uint32_t net = num_nets();
  gates_.push_back(Gate{kind, std::move(fanins), net});
  return net;
}

double Netlist::area(const CellLibrary& lib) const {
  double total = 0.0;
  for (const Gate& g : gates_) total += lib.cell(g.kind).area;
  return total;
}

double Netlist::leakage(const CellLibrary& lib) const {
  double total = 0.0;
  for (const Gate& g : gates_) total += lib.cell(g.kind).leakage;
  return total;
}

std::vector<double> Netlist::net_loads(const CellLibrary& lib) const {
  std::vector<double> load(num_nets(), 0.0);
  for (const Gate& g : gates_) {
    const double cap = lib.cell(g.kind).input_cap;
    for (const std::uint32_t f : g.fanins) load[f] += cap;
  }
  for (const std::uint32_t out : outputs_) load[out] += lib.nominal_load();
  return load;
}

std::vector<double> Netlist::arrival_times(const CellLibrary& lib) const {
  const std::vector<double> load = net_loads(lib);
  std::vector<double> arrival(num_nets(), 0.0);
  // Gates are stored in topological order (fanins precede outputs).
  for (const Gate& g : gates_) {
    double latest = 0.0;
    for (const std::uint32_t f : g.fanins)
      latest = std::max(latest, arrival[f]);
    const Cell& cell = lib.cell(g.kind);
    arrival[g.output_net] =
        latest + cell.intrinsic_delay + cell.load_slope * load[g.output_net];
  }
  return arrival;
}

double Netlist::critical_delay(const CellLibrary& lib) const {
  const std::vector<double> arrival = arrival_times(lib);
  double worst = 0.0;
  for (const std::uint32_t out : outputs_)
    worst = std::max(worst, arrival[out]);
  return worst;
}

void Netlist::simulate_block(std::size_t block,
                             std::span<std::uint64_t> values) const {
  if (values.size() != num_nets())
    throw std::invalid_argument("simulate_block: need one word per net");
  for (unsigned i = 0; i < num_inputs_; ++i)
    values[i] = input_pattern(i, block);
  // Gates are stored in topological order (fanins precede outputs).
  std::uint64_t pins[4];
  for (const Gate& g : gates_) {
    std::size_t k = 0;
    for (const std::uint32_t f : g.fanins) pins[k++] = values[f];
    values[g.output_net] =
        evaluate_cell(g.kind, std::span<const std::uint64_t>(pins, k));
  }
}

std::vector<bool> Netlist::evaluate(std::uint32_t minterm) const {
  std::vector<std::uint64_t> values(num_nets());
  simulate_block(minterm / 64, values);
  std::vector<bool> out;
  out.reserve(outputs_.size());
  for (const std::uint32_t net : outputs_)
    out.push_back((values[net] >> (minterm % 64)) & 1u);
  return out;
}

TernaryTruthTable Netlist::output_table(unsigned o) const {
  if (num_inputs_ > TernaryTruthTable::kMaxInputs)
    throw std::invalid_argument("output_table: too many inputs");
  const std::uint32_t net = outputs_.at(o);
  TernaryTruthTable tt(num_inputs_);
  std::vector<std::uint64_t> values(num_nets());
  for (std::uint32_t base = 0; base < tt.size(); base += 64) {
    simulate_block(base / 64, values);
    for (std::uint64_t bits = values[net] & sim_word_mask(num_inputs_); bits;
         bits &= bits - 1)
      tt.set_phase(base + static_cast<std::uint32_t>(std::countr_zero(bits)),
                   Phase::kOne);
  }
  return tt;
}

}  // namespace rdc
