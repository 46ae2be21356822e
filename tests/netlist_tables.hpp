// The output functions of a mapped netlist as completely specified truth
// tables, from one Netlist::simulate() sweep: what the flow tests compare
// with an implementation or a specification.
#pragma once

#include <cstdint>
#include <vector>

#include "mapper/netlist.hpp"
#include "tt/ternary_function.hpp"

namespace rdc::test {

inline std::vector<TernaryTruthTable> output_tables(const Netlist& netlist) {
  std::vector<TernaryTruthTable> tables;
  for (const BitVec& on : netlist.simulate().outputs) {
    TernaryTruthTable& table = tables.emplace_back(netlist.num_inputs());
    on.for_each_set([&](std::uint64_t m) {
      table.set_phase(static_cast<std::uint32_t>(m), Phase::kOne);
    });
  }
  return tables;
}

}  // namespace rdc::test
