// Reliability-driven DC assignment algorithms.
//
// Implements the two algorithms proposed by the paper:
//  * ranking-based assignment (Fig. 3): rank DC minterms by
//    w = |#on-neighbors - #off-neighbors| and assign the top `fraction` of
//    the ranked list to the majority phase of their neighbors;
//  * complexity-factor-based assignment (Fig. 7): assign a DC minterm to its
//    majority phase iff its local complexity factor is below a threshold.
//
// Both follow the paper's static formulation: neighbor counts and local
// complexity factors are computed once on the input specification and not
// refreshed as DCs get assigned (an incremental variant is provided for the
// ablation study).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "reliability/fault_model.hpp"
#include "tt/incomplete_spec.hpp"
#include "tt/neighbor_stats.hpp"
#include "tt/ternary_function.hpp"

namespace rdc {

/// Result of a DC assignment pass on one output function.
struct AssignmentResult {
  std::uint32_t dc_before = 0;   ///< DC minterms before the pass
  std::uint32_t assigned = 0;    ///< minterms assigned by the pass
  std::uint32_t assigned_on = 0; ///< of those, assigned to the on-set
};

/// Ranking-based DC assignment (paper Fig. 3).
///
/// `fraction` in [0, 1] selects how much of the ranked list (DCs with
/// non-zero weight only, sorted by decreasing w, ties broken by minterm
/// index) is assigned. fraction = 1 assigns every DC whose neighborhood has
/// a majority phase; DCs with w = 0 are always left unassigned.
AssignmentResult ranking_assign(TernaryTruthTable& f, double fraction);

/// Incremental variant (ablation B): neighbor counts are updated after every
/// individual assignment (only the n adjacent counts change), so earlier
/// assignments can create or destroy majorities for later ones.
AssignmentResult ranking_assign_incremental(TernaryTruthTable& f,
                                            double fraction);

// Table-reusing overloads: identical semantics, but seeded from an
// already-built NeighborTable of `f` instead of rebuilding one. All
// algorithms evaluate their neighbor metrics on the *input* specification
// (the paper's static formulation), so a table cached for the pristine spec
// stays valid for every such pass — the flow layer builds the per-output
// tables once per Design and hands them to each assign pass.
AssignmentResult ranking_assign(TernaryTruthTable& f, double fraction,
                                const NeighborTable& neighbors);
AssignmentResult ranking_assign_incremental(TernaryTruthTable& f,
                                            double fraction,
                                            const NeighborTable& neighbors);

/// Complexity-factor-based DC assignment (paper Fig. 7).
///
/// Assigns each DC minterm with LC^f below `threshold` to the majority
/// phase of its neighbors. The paper recommends thresholds in [0.45, 0.65].
///
/// `assign_balanced`: the paper's Fig.-7 pseudocode reads "else x <- 0",
/// which would send *tied* DCs (equal on/off neighbor counts) to the
/// off-set — pure area overhead with zero reliability benefit. The default
/// (false) leaves ties to the conventional optimizer, which matches the
/// low overheads the paper reports; true follows the pseudocode literally
/// (compare with bench_ablation_ties).
AssignmentResult lcf_assign(TernaryTruthTable& f, double threshold,
                            bool assign_balanced = false);
AssignmentResult lcf_assign(TernaryTruthTable& f, double threshold,
                            bool assign_balanced,
                            const NeighborTable& neighbors);

/// Assigns exactly `count` DCs by rank (used for the paper's Table-2
/// protocol of comparing ranking-based to LC^f-based at equal fractions).
AssignmentResult ranking_assign_count(TernaryTruthTable& f,
                                      std::uint32_t count);
AssignmentResult ranking_assign_count(TernaryTruthTable& f,
                                      std::uint32_t count,
                                      const NeighborTable& neighbors);

/// Multi-output wrappers: apply the pass to every output independently and
/// accumulate the counters.
AssignmentResult ranking_assign(IncompleteSpec& spec, double fraction);
AssignmentResult ranking_assign_incremental(IncompleteSpec& spec,
                                            double fraction);
AssignmentResult ranking_assign_incremental(
    IncompleteSpec& spec, double fraction,
    std::span<const NeighborTable> tables);
AssignmentResult lcf_assign(IncompleteSpec& spec, double threshold,
                            bool assign_balanced = false);

/// Fault-model-driven forms, the flow's assign passes. Every overload in
/// this header except ranking_assign_incremental (whose incremental
/// neighbor counts exist for bitflip(1) only) decides through the same
/// core: per DC, the model's MintermEvents give the weight
/// |if_on - if_off| and the phase adding the smaller event mass. The
/// NeighborTable overloads above feed it bitflip(1) events (if_on =
/// off-neighbors, if_off = on-neighbors), which is exactly the paper's
/// majority vote. `tables` holds one prebuilt NeighborTable per output
/// (tables.size() must equal num_outputs()); LC^f is computed from them
/// whatever the model.
AssignmentResult ranking_assign(IncompleteSpec& spec, double fraction,
                                std::span<const NeighborTable> tables,
                                const reliability::FaultModel& model);
AssignmentResult lcf_assign(IncompleteSpec& spec, double threshold,
                            bool assign_balanced,
                            std::span<const NeighborTable> tables,
                            const reliability::FaultModel& model);

}  // namespace rdc
