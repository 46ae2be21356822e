// Precomputed 1-Hamming-distance neighborhood statistics.
//
// Every algorithm in the paper is driven by the phases of a minterm's n
// neighbors: ranking weights (Fig. 3), complexity factors (Sec. 2.2/4),
// border counts and error bounds (Sec. 5). NeighborTable computes all
// per-minterm neighbor counts and serves them in O(1).
//
// Construction is word-parallel: per 64-minterm word, the n neighbor
// permutations of the on- and DC-membership bitsets are reduced into
// register-resident bit-sliced vertical counters (5 bit-planes hold counts
// up to 31 > kMaxInputs = 20) using branchless Harley-Seal carry-save
// blocks, then the planes are transposed into per-minterm count bytes via a
// spread lookup table; off = n - on - dc by byte-parallel subtraction. The
// one-bit-at-a-time counts it is tested against are the scalar reference in
// tests/oracles/error_rate.*.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "tt/ternary_function.hpp"

namespace rdc {

/// Per-minterm neighbor phase counts for one ternary function.
struct NeighborCounts {
  std::uint8_t on = 0;   ///< neighbors in the on-set
  std::uint8_t off = 0;  ///< neighbors in the off-set
  std::uint8_t dc = 0;   ///< neighbors in the DC-set
};

class NeighborTable {
 public:
  explicit NeighborTable(const TernaryTruthTable& f);

  NeighborCounts at(std::uint32_t minterm) const {
    return {on_[minterm], off_[minterm], dc_[minterm]};
  }

  unsigned num_inputs() const { return num_inputs_; }

  /// For every minterm, in minterm order, the number of its neighbors that
  /// share its phase in `f` (the summand of the complexity factor
  /// definition; out.size() == f.size()).
  void same_phase_neighbors(const TernaryTruthTable& f,
                            std::span<std::uint8_t> out) const;

 private:
  unsigned num_inputs_;
  // Struct-of-arrays: one count byte per minterm per set, so the
  // word-parallel build can store 8 transposed count bytes with one write.
  // Heap arrays are left uninitialized on allocation — the constructor
  // overwrites every byte, and zeroing three 2^n-byte arrays costs as much
  // as the build itself at small n.
  std::unique_ptr<std::uint8_t[]> on_;
  std::unique_ptr<std::uint8_t[]> off_;
  std::unique_ptr<std::uint8_t[]> dc_;
};

}  // namespace rdc
