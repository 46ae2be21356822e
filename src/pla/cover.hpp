// Single-output cube covers (sums of products).
//
// A Cover is the SOP object manipulated by the ESPRESSO engine and by the
// factoring front-end of the synthesis flow. It also converts to and from
// the ternary truth tables used by the reliability algorithms.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "pla/cube.hpp"
#include "tt/ternary_function.hpp"

namespace rdc {

class Cover {
 public:
  explicit Cover(unsigned num_inputs) : num_inputs_(num_inputs) {}
  Cover(unsigned num_inputs, std::vector<Cube> cubes)
      : num_inputs_(num_inputs), cubes_(std::move(cubes)) {}

  unsigned num_inputs() const { return num_inputs_; }
  std::size_t size() const { return cubes_.size(); }
  bool empty_cover() const { return cubes_.empty(); }

  const Cube& cube(std::size_t i) const { return cubes_[i]; }
  std::vector<Cube>& cubes() { return cubes_; }
  const std::vector<Cube>& cubes() const { return cubes_; }

  void add(const Cube& c) { cubes_.push_back(c); }

  /// Total number of literals across all cubes (the classic SOP cost).
  std::uint64_t literal_count() const;

  /// True iff some cube contains the minterm.
  bool covers_minterm(std::uint32_t m) const;

  /// The set of minterms covered, as a packed 2^n-minterm bitset: each cube
  /// painted word by word. Requires num_inputs <= TernaryTruthTable::kMaxInputs.
  BitVec minterm_bits() const;

  /// Cover consisting of one minterm cube per on-set minterm of `f`
  /// (`phase` selects which set to enumerate), in increasing minterm order.
  static Cover from_phase(const TernaryTruthTable& f, Phase phase);

  /// Removes cubes contained in another cube of the cover (single-cube
  /// containment minimization). Stable order of survivors.
  void remove_single_cube_contained();

 private:
  unsigned num_inputs_;
  std::vector<Cube> cubes_;
};

}  // namespace rdc
