// Gate-level netlists produced by technology mapping.
//
// Nets are dense ids: 0..n-1 are the primary inputs, every gate drives one
// new net. The netlist supports exact exhaustive simulation, 64 input
// vectors per machine word (one sweep yields the signal probabilities for
// the power model and the output functions for verification and
// testbenches), and static timing with the library's linear delay model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bitvec.hpp"
#include "mapper/cell_library.hpp"
#include "tt/ternary_function.hpp"

namespace rdc {

struct Gate {
  CellKind kind;
  CellPins fanins;  ///< net ids, one per cell pin
  std::uint32_t output_net = 0;
};

/// One exhaustive simulation of a netlist over its 2^n input vectors.
struct NetlistSimulation {
  /// Per net: the number of input vectors on which the net is 1.
  std::vector<std::uint64_t> ones;
  /// Per primary output: its on-set, bit m the value on input vector m
  /// (2^n bits).
  std::vector<BitVec> outputs;
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
  std::uint32_t add_gate(CellKind kind, std::span<const std::uint32_t> fanins);
  std::uint32_t add_gate(CellKind kind,
                         std::initializer_list<std::uint32_t> fanins) {
    return add_gate(kind, std::span(fanins.begin(), fanins.size()));
  }

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

  /// Simulates all 2^n input vectors (bit i of vector m = input i) in
  /// one gate-by-gate sweep. Throws std::invalid_argument for n >
  /// TernaryTruthTable::kMaxInputs (20).
  NetlistSimulation simulate() const;

 private:
  unsigned num_inputs_ = 0;
  std::vector<Gate> gates_;
  std::vector<std::uint32_t> outputs_;
};

}  // namespace rdc
