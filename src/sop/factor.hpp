// Factoring of two-level covers into multi-level expression trees.
//
// This is the technology-independent restructuring stage of the synthesis
// flow (the Design-Compiler substitute): minimized SOPs are factored into
// and/or trees whose literal count approximates multi-level area, then
// lowered onto the AIG.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pla/cover.hpp"

namespace rdc {

/// Node of a factored expression tree.
struct FactorTree {
  enum class Kind : std::uint8_t { kConst0, kConst1, kLiteral, kAnd, kOr };

  Kind kind = Kind::kConst0;
  unsigned var = 0;       ///< for kLiteral
  bool positive = true;   ///< for kLiteral
  std::vector<FactorTree> children;  ///< for kAnd / kOr

  static FactorTree constant(bool value) {
    FactorTree t;
    t.kind = value ? Kind::kConst1 : Kind::kConst0;
    return t;
  }
  static FactorTree literal(unsigned var, bool positive) {
    FactorTree t;
    t.kind = Kind::kLiteral;
    t.var = var;
    t.positive = positive;
    return t;
  }
};

/// Factors a cover using kernel/literal division with common-cube
/// extraction (SIS quick-factor style). The tree computes exactly the same
/// Boolean function as the cover.
FactorTree factor(const Cover& f);

/// Number of literal leaves — the classic factored-form cost.
std::uint64_t factored_literal_count(const FactorTree& tree);

/// Expression text, e.g. "(a & !b) | (c & (d | e))" with variables named
/// x0, x1, ...
std::string to_string(const FactorTree& tree);

}  // namespace rdc
