// Reference checkers for the flow's two-level and multi-level artifacts,
// kept as test oracles: is a cover a valid implementation of a ternary
// truth table, and what does a factored expression tree compute on one
// minterm. The library never asks either question of its own results;
// the tests ask both of every minimizer and factoring path.
#pragma once

#include <cstdint>

#include "pla/cover.hpp"
#include "sop/factor.hpp"
#include "tt/ternary_function.hpp"

namespace rdc::oracle {

/// True iff `cover` covers every ON minterm of `f` and no OFF minterm.
/// `cover` must have the width of `f`.
bool cover_is_valid_for(const Cover& cover, const TernaryTruthTable& f);

/// Evaluates the tree on a minterm (bit v of `minterm` = value of x_v).
bool evaluate(const FactorTree& tree, std::uint32_t minterm);

}  // namespace rdc::oracle
