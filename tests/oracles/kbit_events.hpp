// bitflip(k) DC-assignment events by direct probing, kept as a test
// oracle: for every DC minterm, every flip mask of exactly k pins is
// applied and the care neighbor it reaches is counted. O(|DC| * C(n,k))
// probes. The library derives the same counts from the hypercube
// distance recursion (DESIGN.md §16).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "reliability/fault_model.hpp"
#include "tt/ternary_function.hpp"

namespace rdc::oracle {

/// Events of each minterm in `dcs` (DC minterms of `spec`) under k
/// simultaneous pin flips: if_on counts the off-set minterms at Hamming
/// distance exactly k, if_off the on-set ones. k > n gives all zeros.
std::vector<reliability::MintermEvents> kbit_events(
    const TernaryTruthTable& spec, std::span<const std::uint32_t> dcs,
    unsigned k);

}  // namespace rdc::oracle
