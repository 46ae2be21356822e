// DAGON-style tree-covering technology mapper.
//
// The AIG is partitioned into trees at multi-fanout nodes; each tree is
// covered by dynamic programming over the structural matches of
// subject_graph.hpp. Two objectives mirror the paper's Design-Compiler
// modes: minimum area ("compile -area/-power") and minimum delay
// ("set_max_delay 0").
#pragma once

#include "aig/aig.hpp"
#include "mapper/cell_library.hpp"
#include "mapper/netlist.hpp"

namespace rdc {

enum class MapObjective { kArea, kDelay };

struct MapOptions {
  MapObjective objective = MapObjective::kArea;
};

/// Maps the AIG onto the library. The result computes exactly the AIG's
/// output functions (verified by tests via exhaustive simulation). Matches
/// on cells the library lacks are skipped; an AND node left with no match
/// at all (e.g. an inverter-only library) throws std::invalid_argument.
Netlist map_aig(const Aig& aig, const CellLibrary& lib,
                const MapOptions& options = {});

}  // namespace rdc
