// Gate-level netlists produced by technology mapping.
//
// Nets are dense ids: 0..n-1 are the primary inputs, every gate drives one
// new net. The netlist supports exact exhaustive simulation, 64 input
// vectors per machine word (for functional verification and
// switching-activity extraction), and static timing with the library's
// linear delay model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "mapper/cell_library.hpp"
#include "tt/ternary_function.hpp"

namespace rdc {

struct Gate {
  CellKind kind;
  std::vector<std::uint32_t> fanins;  ///< net ids, one per cell pin
  std::uint32_t output_net = 0;
};

class Netlist {
 public:
  /// Empty 0-input netlist; a placeholder container element.
  Netlist() = default;
  explicit Netlist(unsigned num_inputs) : num_inputs_(num_inputs) {}

  unsigned num_inputs() const { return num_inputs_; }
  std::uint32_t num_nets() const {
    return num_inputs_ + static_cast<std::uint32_t>(gates_.size());
  }
  const std::vector<Gate>& gates() const { return gates_; }

  std::uint32_t input_net(unsigned i) const { return i; }

  /// Appends a gate; returns the net it drives. Throws
  /// std::invalid_argument if fanins.size() != cell_arity(kind) and
  /// std::out_of_range if a fanin net is not driven yet.
  std::uint32_t add_gate(CellKind kind, std::vector<std::uint32_t> fanins);

  void add_output(std::uint32_t net) { outputs_.push_back(net); }
  const std::vector<std::uint32_t>& outputs() const { return outputs_; }

  std::size_t gate_count() const { return gates_.size(); }

  /// Total cell area.
  double area(const CellLibrary& lib) const;

  /// Total leakage power (nW).
  double leakage(const CellLibrary& lib) const;

  /// Capacitive load on each net: sum of input caps of the pins it feeds.
  /// Primary outputs add one nominal load each.
  std::vector<double> net_loads(const CellLibrary& lib) const;

  /// Static timing: arrival time of every net (ps), linear delay model.
  std::vector<double> arrival_times(const CellLibrary& lib) const;

  /// Worst arrival time over the primary outputs (ps).
  double critical_delay(const CellLibrary& lib) const;

  /// Simulates input vectors 64*block .. 64*block+63 at once: sets bit b
  /// of values[net] to the net's value on vector 64*block + b. `values`
  /// must hold one word per net (else std::invalid_argument). With fewer
  /// than 6 inputs only the low 2^n bits are vectors; the bits above
  /// repeat them.
  void simulate_block(std::size_t block,
                      std::span<std::uint64_t> values) const;

  /// Evaluates the netlist on one input vector (bit i = input i).
  std::vector<bool> evaluate(std::uint32_t minterm) const;

  /// Truth table of output `o` over all 2^n vectors (n <= 20).
  TernaryTruthTable output_table(unsigned o) const;

 private:
  unsigned num_inputs_ = 0;
  std::vector<Gate> gates_;
  std::vector<std::uint32_t> outputs_;
};

}  // namespace rdc
