// Exhaustive AIG simulation: per-node truth tables over all 2^n input
// vectors. Used for equivalence checking, power estimation (exact signal
// probabilities) and local-function extraction in nodal decomposition.
#pragma once

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"
#include "tt/ternary_function.hpp"

namespace rdc {

/// Bit-parallel truth table of one signal: bit m = value on input vector m.
using SimWords = std::vector<std::uint64_t>;

class AigSimulator {
 public:
  /// Simulates the whole AIG over all 2^num_inputs vectors (num_inputs must
  /// be <= 20).
  explicit AigSimulator(const Aig& aig);

  /// Truth-table words of a literal (complement applied).
  SimWords literal_table(std::uint32_t lit) const;

  /// Value of a literal on one input vector.
  bool literal_value(std::uint32_t lit, std::uint32_t minterm) const;

  /// Truth table of output `o` as a completely specified ternary table.
  TernaryTruthTable output_table(unsigned o) const;

  std::uint32_t num_vectors() const { return num_vectors_; }

 private:
  const Aig& aig_;
  std::uint32_t num_vectors_;
  std::size_t words_;
  std::vector<SimWords> tables_;  // per node, positive polarity
};

}  // namespace rdc
