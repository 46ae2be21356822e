// Incremental ranking (ablation B) by a lazy binary heap, kept as a test
// oracle: entries carry the weight they were pushed with, and a stale
// entry (its minterm's weight changed since) is re-pushed when popped. The
// library keeps one bucket per weight instead and must assign the same
// DCs in the same order.
#pragma once

#include "reliability/assignment.hpp"
#include "tt/neighbor_stats.hpp"
#include "tt/ternary_function.hpp"

namespace rdc::oracle {

/// ranking_assign_incremental's contract: neighbor counts are updated after
/// every assignment, the DC of largest current weight |#on - #off| (then
/// smallest index) is assigned next, and the budget is `fraction` of the
/// non-zero-weight DCs at the start. `neighbors` is the table of `f`.
AssignmentResult ranking_assign_incremental(TernaryTruthTable& f,
                                            double fraction,
                                            const NeighborTable& neighbors);

}  // namespace rdc::oracle
