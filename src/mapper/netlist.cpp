#include "mapper/netlist.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "common/bits.hpp"

namespace rdc {

std::uint32_t Netlist::add_gate(CellKind kind,
                                std::span<const std::uint32_t> fanins) {
  if (fanins.size() != cell_arity(kind))
    throw std::invalid_argument(
        "Netlist::add_gate: fanin count does not match the cell");
  for (const std::uint32_t f : fanins)
    if (f >= num_nets())
      throw std::out_of_range("Netlist::add_gate: fanin net not yet driven");
  const std::uint32_t net = num_nets();
  gates_.push_back(Gate{kind, CellPins(fanins), net});
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

void Netlist::simulate_chunk(std::size_t first_block,
                             std::span<std::uint64_t> values) const {
  if (values.size() != kSimWords * num_nets())
    throw std::invalid_argument(
        "simulate_chunk: need kSimWords words per net");
  std::uint64_t* v = values.data();
  for (unsigned i = 0; i < num_inputs_; ++i)
    for (std::size_t w = 0; w < kSimWords; ++w)
      v[kSimWords * i + w] = input_pattern(i, first_block + w);
  // Gates are stored in topological order (fanins precede outputs).
  const std::uint64_t* pin[CellPins::kCapacity] = {};
  for (const Gate& g : gates_) {
    for (std::size_t k = 0; k < g.fanins.size(); ++k)
      pin[k] = v + kSimWords * g.fanins[k];
    evaluate_cell_words<kSimWords>(g.kind, pin, v + kSimWords * g.output_net);
  }
}

std::vector<bool> Netlist::evaluate(std::uint32_t minterm) const {
  std::vector<std::uint64_t> values(kSimWords * num_nets());
  simulate_chunk(minterm / 64, values);
  std::vector<bool> out;
  out.reserve(outputs_.size());
  for (const std::uint32_t net : outputs_)
    out.push_back((values[kSimWords * net] >> (minterm % 64)) & 1u);
  return out;
}

TernaryTruthTable Netlist::output_table(unsigned o) const {
  if (num_inputs_ > TernaryTruthTable::kMaxInputs)
    throw std::invalid_argument("output_table: too many inputs");
  const std::uint32_t net = outputs_.at(o);
  TernaryTruthTable tt(num_inputs_);
  const std::uint64_t mask = sim_word_mask(num_inputs_);
  const std::size_t blocks = (tt.size() + 63) / 64;
  std::vector<std::uint64_t> values(kSimWords * num_nets());
  for (std::size_t first = 0; first < blocks; first += kSimWords) {
    simulate_chunk(first, values);
    for (std::size_t w = 0; w < kSimWords && first + w < blocks; ++w) {
      const auto base = static_cast<std::uint32_t>(64 * (first + w));
      for (std::uint64_t bits = values[kSimWords * net + w] & mask; bits;
           bits &= bits - 1)
        tt.set_phase(base + static_cast<std::uint32_t>(std::countr_zero(bits)),
                     Phase::kOne);
    }
  }
  return tt;
}

}  // namespace rdc
