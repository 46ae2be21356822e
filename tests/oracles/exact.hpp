// Exact two-level minimization (Quine-McCluskey prime generation plus
// branch-and-bound minimum cover).
//
// Exponential in the worst case — a test oracle for functions of up to ~10
// inputs: tests assert the heuristic ESPRESSO loop lands within a small
// factor of the true minimum.
#pragma once

#include <vector>

#include "pla/cover.hpp"
#include "tt/ternary_function.hpp"

namespace rdc::oracle {

/// All prime implicants of `f` (covering at least one care-on minterm;
/// DCs may be absorbed).
std::vector<Cube> prime_implicants(const TernaryTruthTable& f);

/// A minimum-cardinality prime cover of `f` (on-set covered, off-set
/// avoided; DCs free). Ties are broken toward fewer literals.
Cover exact_minimize(const TernaryTruthTable& f);

/// Cardinality of the minimum cover without materializing it.
std::size_t minimum_sop_size(const TernaryTruthTable& f);

}  // namespace rdc::oracle
