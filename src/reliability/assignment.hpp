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
/// The same, seeded from `neighbors`, an already-built NeighborTable of
/// `f` (the flow's per-Design table of the pristine spec).
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

/// Assigns exactly `count` DCs by rank (used for the paper's Table-2
/// protocol of comparing ranking-based to LC^f-based at equal fractions).
AssignmentResult ranking_assign_count(TernaryTruthTable& f,
                                      std::uint32_t count);

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

/// One DC the fault model's events favor a phase for: an entry of Fig. 3's
/// ranked list, from the model's events on the input specification. 16
/// bytes, so ranking moves little memory.
struct DcCandidate {
  double weight = 0.0;  ///< |if_on - if_off|, the generalized majority weight
  std::uint32_t minterm = 0;
  bool to_on = false;   ///< the phase adding the smaller event mass
};

/// One output's candidates: every DC of non-zero weight, built in
/// increasing minterm order. The DCs left out are the tied ones (weight
/// 0). Every assign policy except ranking_assign_incremental (whose
/// incremental neighbor counts exist for bitflip(1) only) decides from
/// this list; the paper-model overloads above build it from bitflip(1)
/// events (if_on = off-neighbors, if_off = on-neighbors), which is exactly
/// the paper's majority vote. A ranking selection reorders the list in
/// place. That changes no later decision: the ranked order (decreasing
/// weight, ties by minterm) is a total order, so the top k entries are the
/// same set in any list order.
using DcCandidates = std::vector<DcCandidate>;

/// The one decision core: the candidates of `f` under `model`.
/// `neighbors` is the prebuilt table of `f`.
DcCandidates dc_candidates(const TernaryTruthTable& f,
                           const NeighborTable& neighbors,
                           const reliability::FaultModel& model);

/// Multi-output forms over prebuilt candidates, the flow's assign passes:
/// `candidates` and `tables` hold one entry per output of `spec`, built on
/// `spec` itself (the static formulation). ranking_assign may reorder each
/// output's list; lcf_assign computes LC^f from `tables` whatever the
/// model.
AssignmentResult ranking_assign(IncompleteSpec& spec, double fraction,
                                std::span<DcCandidates> candidates);
AssignmentResult lcf_assign(IncompleteSpec& spec, double threshold,
                            bool assign_balanced,
                            std::span<const DcCandidates> candidates,
                            std::span<const NeighborTable> tables);

}  // namespace rdc
