#include "mapper/netlist.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/bits.hpp"
#include "common/simd.hpp"

namespace rdc {
namespace {

/// Words of 64 input vectors each that simulate_chunk computes per net.
constexpr std::size_t kSimWords = 8;

/// Simulates the input vectors of the kSimWords blocks first_block,
/// first_block + 1, ... (block k holds vectors 64k .. 64k+63), gate by gate
/// in stored order: bit b of values[kSimWords * net + w] is the net's value
/// on vector 64 * (first_block + w) + b. `values` holds kSimWords words per
/// net. Vectors are taken modulo 2^n: with fewer than 6 inputs the bits
/// above 2^n repeat the low ones, and blocks past the last one repeat the
/// first ones.
void simulate_chunk(const Netlist& netlist, std::size_t first_block,
                    std::uint64_t* values) {
  for (unsigned i = 0; i < netlist.num_inputs(); ++i)
    for (std::size_t w = 0; w < kSimWords; ++w)
      values[kSimWords * i + w] = input_pattern(i, first_block + w);
  // Gates are stored in topological order (fanins precede outputs).
  const std::uint64_t* pin[CellPins::kCapacity] = {};
  for (const Gate& g : netlist.gates()) {
    for (std::size_t k = 0; k < g.fanins.size(); ++k)
      pin[k] = values + kSimWords * g.fanins[k];
    evaluate_cell_words<kSimWords>(g.kind, pin,
                                   values + kSimWords * g.output_net);
  }
}

}  // namespace

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

NetlistSimulation Netlist::simulate() const {
  if (num_inputs_ > TernaryTruthTable::kMaxInputs)
    throw std::invalid_argument("Netlist::simulate: too many inputs");
  const std::uint32_t vectors = num_minterms(num_inputs_);
  const std::size_t blocks = (vectors + 63) / 64;
  NetlistSimulation sim;
  sim.ones.assign(num_nets(), 0);
  sim.outputs.assign(outputs_.size(), BitVec(vectors));
  std::vector<std::uint64_t> values(kSimWords * num_nets());
  for (std::size_t first = 0; first < blocks; first += kSimWords) {
    simulate_chunk(*this, first, values.data());
    // Only the vectors 0 .. 2^n - 1 count: the bits above 2^n of a short
    // word and the words past the last block repeat earlier vectors.
    const std::size_t words = std::min(kSimWords, blocks - first);
    std::uint64_t mask[kSimWords] = {};
    for (std::size_t w = 0; w < words; ++w)
      mask[w] = sim_word_mask(num_inputs_);
    for (std::uint32_t net = 0; net < num_nets(); ++net)
      sim.ones[net] +=
          simd::popcount_and(&values[kSimWords * net], mask, kSimWords);
    for (std::size_t o = 0; o < outputs_.size(); ++o) {
      const std::uint64_t* v = &values[kSimWords * outputs_[o]];
      std::uint64_t* out = sim.outputs[o].data() + first;
      for (std::size_t w = 0; w < words; ++w) out[w] = v[w] & mask[w];
    }
  }
  return sim;
}

}  // namespace rdc
