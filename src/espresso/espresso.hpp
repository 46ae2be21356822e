// ESPRESSO-style two-level minimization and the conventional (area-driven)
// DC assignment it induces.
//
// This is the in-repo substitute for the ESPRESSO/Design-Compiler front-end
// the paper uses: it produces the minimal-SOP sizes of Fig. 2 and realizes
// "conventional DC assignment" — a DC minterm becomes 1 iff the minimized
// cover happens to contain it.
#pragma once

#include "exec/status.hpp"
#include "pla/cover.hpp"
#include "tt/incomplete_spec.hpp"
#include "tt/ternary_function.hpp"

namespace rdc {

struct EspressoOptions {
  /// Upper bound on expand/irredundant/reduce iterations (the loop normally
  /// converges in 2-4). 0 keeps only the initial expand+irredundant pass —
  /// the "heuristic" rung of the flow's degradation ladder.
  unsigned max_iterations = 12;
};

/// Outcome of a budget-aware minimization. `cover` is ALWAYS a valid cover
/// of the on-set (worst case: the input on-set itself); when the run was cut
/// short by a deadline/cancellation, `partial` is true and `status` carries
/// the budget code that stopped it.
struct EspressoResult {
  Cover cover{0};  ///< re-sized by the minimizer to the input width
  exec::Status status;
  bool partial = false;
};

/// Budget-aware minimization: polls the installed exec budget between
/// passes (and, through the pass kernels, per cube) and salvages the best
/// complete cover seen so far instead of throwing on a budget trip.
/// Non-budget exceptions still propagate.
///
/// The loop keeps covers of cubes, but asks its questions of the minterm
/// sets: EXPAND tests raises against the OFF bitset, IRREDUNDANT and
/// REDUCE read per-minterm cover counts next to the DC bitset.
EspressoResult minimize_bounded(const TernaryTruthTable& f,
                                const EspressoOptions& options = {});

/// Minimizes a ternary truth table (ON minterms against its DC set). Throws
/// StatusError if the installed exec budget trips (use minimize_bounded to
/// get the partial cover instead).
Cover minimize(const TernaryTruthTable& f,
               const EspressoOptions& options = {});

/// Number of implicants in the minimized SOP of `f` (the y-axis of Fig. 2).
std::size_t minimal_sop_size(const TernaryTruthTable& f);

/// Total minimized-implicant count across all outputs of a spec.
std::size_t minimal_sop_size(const IncompleteSpec& spec);

/// Conventional (area-driven) assignment: minimize, then force every DC
/// minterm to the value the minimized cover gives it. Returns the cover.
/// `options` selects the minimization effort (the flow's degradation
/// ladder passes max_iterations = 0 for its heuristic rung).
Cover conventional_assign(TernaryTruthTable& f,
                          const EspressoOptions& options = {});

/// Applies conventional assignment to every output.
void conventional_assign(IncompleteSpec& spec);

}  // namespace rdc
