// Pattern matching on the AIG subject graph.
//
// A Match realizes one polarity of an AND node with a single library cell;
// cell pins connect to AIG literals (a complemented literal means the pin
// needs the inverted signal). Patterns may absorb fanout-free internal AND
// nodes only (DAGON-style tree covering: cells never cross multi-fanout
// edges).
#pragma once

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"
#include "mapper/cell_library.hpp"

namespace rdc {

struct Match {
  CellKind kind;
  bool output_negated = false;  ///< cell output = NEG polarity of the node
  CellPins leaves;              ///< AIG literals, one per cell pin
};

/// Enumerates all structural matches at AND node `node` into `matches`,
/// which is cleared first (a caller that maps many nodes reuses one
/// buffer). `fanout` must come from Aig::fanout_counts() of the same AIG.
void enumerate_matches(const Aig& aig, std::uint32_t node,
                       const std::vector<unsigned>& fanout,
                       std::vector<Match>& matches);

}  // namespace rdc
