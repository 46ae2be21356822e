// Ternary (incompletely specified) single-output Boolean functions held as
// packed truth tables.
//
// A TernaryTruthTable stores, for every minterm of an n-input function
// (n <= kMaxInputs), one of the three phases used throughout the paper:
// off-set (0), on-set (1), or don't-care (DC). All per-minterm algorithms in
// the paper — ranking-based assignment (Fig. 3), local complexity factors
// (Sec. 4), exact error rates (Sec. 5) — operate on this representation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/bitvec.hpp"

namespace rdc {

/// Phase of a minterm in an incompletely specified function.
enum class Phase : std::uint8_t {
  kZero = 0,  ///< off-set
  kOne = 1,   ///< on-set
  kDc = 2,    ///< don't-care set
};

/// Returns '0', '1' or '-' for a phase (PLA convention).
char phase_char(Phase p);

/// Packed ternary truth table over n <= kMaxInputs inputs.
///
/// Invariant: a minterm is never simultaneously in the on- and DC-set; the
/// off-set is the complement of their union.
class TernaryTruthTable {
 public:
  static constexpr unsigned kMaxInputs = 20;

  /// Constructs the constant-0 (all off-set) function on `num_inputs` inputs.
  explicit TernaryTruthTable(unsigned num_inputs);

  unsigned num_inputs() const { return num_inputs_; }
  std::uint32_t size() const { return num_minterms(num_inputs_); }

  Phase phase(std::uint32_t minterm) const {
    if (on_.get(minterm)) return Phase::kOne;
    return dc_.get(minterm) ? Phase::kDc : Phase::kZero;
  }

  void set_phase(std::uint32_t minterm, Phase p);

  bool is_on(std::uint32_t m) const { return on_.get(m); }
  bool is_dc(std::uint32_t m) const { return dc_.get(m); }
  bool is_off(std::uint32_t m) const { return !on_.get(m) && !dc_.get(m); }
  /// True iff the minterm is in the care set (on or off).
  bool is_care(std::uint32_t m) const { return !dc_.get(m); }

  /// Word-parallel views of the three sets for the kernel layer: packed
  /// membership bitsets (bit m <-> minterm m). on_bits/dc_bits are O(1)
  /// references; care_bits/off_bits materialize the complement, O(words).
  const BitVec& on_bits() const { return on_; }
  const BitVec& dc_bits() const { return dc_; }
  BitVec care_bits() const { return dc_.complement(); }
  BitVec off_bits() const {
    BitVec off = on_.complement();
    off.and_not(dc_);
    return off;
  }

  /// Cardinalities of the three sets. O(words).
  std::uint32_t on_count() const {
    return static_cast<std::uint32_t>(on_.count());
  }
  std::uint32_t dc_count() const {
    return static_cast<std::uint32_t>(dc_.count());
  }
  std::uint32_t off_count() const { return size() - on_count() - dc_count(); }

  /// Signal probabilities f1, f0, fDC as defined in Sec. 3.1 of the paper.
  double f1() const { return static_cast<double>(on_count()) / size(); }
  double f0() const { return static_cast<double>(off_count()) / size(); }
  double f_dc() const { return static_cast<double>(dc_count()) / size(); }

  /// All minterms currently in the DC-set, in increasing index order.
  std::vector<std::uint32_t> dc_minterms() const;

  /// True iff the function has an empty DC-set.
  bool fully_specified() const { return dc_count() == 0; }

  /// Returns a copy with every DC minterm forced to `p` (p must be 0 or 1).
  TernaryTruthTable with_all_dc_assigned(Phase p) const;

  /// Exact equality of phases on every minterm.
  bool operator==(const TernaryTruthTable& other) const = default;

  /// Human-readable phase string, minterm 0 first (debug/test aid).
  std::string to_string() const;

 private:
  unsigned num_inputs_;
  BitVec on_;  ///< bit set for on-set membership
  BitVec dc_;  ///< bit set for DC-set membership
};

}  // namespace rdc
