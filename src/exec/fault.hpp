// The one fault injector for robustness testing (DESIGN.md §10):
//
//   RDC_FAULT = rule[,rule...]
//   rule      = site ":" [action ":"] trigger ["@" attempt]
//   action    = throw (default) | kill | segv | oom | hang
//   trigger   = N  integer >= 1: the Nth and every later hit of this rule
//             | p  decimal in [0, 1] containing '.': fires when
//                  fnv(job key, attempt, rule index) < p
//
// Hit counts are per process, and a supervised job attempt is its own
// process: in a batch `site:N` counts within one attempt, so fault per job
// with a p-trigger or `@attempt`. Both read the (job key, attempt) the
// supervisor records in its worker; in process it is (0, 0). A bad spec is
// rejected whole. Disarmed, fault_point is one relaxed atomic load.
#pragma once

#include <cstdint>
#include <string>

#include "exec/status.hpp"

namespace rdc::exec {

/// Every fault point in the tree; the spec names them as in the comments.
enum class FaultSite : std::uint8_t {
  kEspresso,          ///< "espresso": one minimize_bounded() run
  kSat,               ///< "sat": one Solver::solve call
  kNeighbor,          ///< "neighbor": one NeighborTable build
  kFlowExact,         ///< "flow.exact": rung 0 of run_flow's ladder
  kFlowHeuristic,     ///< "flow.heuristic": rung 1
  kFlowConventional,  ///< "flow.conventional": rung 2
  kPipelinePass,      ///< "pipeline.pass": one pass about to run
  kJob,               ///< "job": a supervised worker before its job body
};

/// Counts a hit of `site` and runs the action of the first rule that
/// fires: throw raises StatusError(kFaultInjected); kill and segv do not
/// return; oom throws (bad_alloc or kResourceExhausted); hang sleeps up to
/// 60 s, then returns.
void fault_point(FaultSite site);

/// True when any rule is armed (env var or test override).
bool faults_armed();

/// Records the job identity that p-triggers and `@attempt` filters read
/// and restarts hit counts. The supervisor calls it once in each
/// single-threaded worker.
void set_fault_context(std::uint64_t job_key, int attempt);

namespace testing {

/// Replaces the armed rules (RDC_FAULT grammar; empty disarms), resets
/// hit counts and the context to (0, 0). A bad spec returns
/// kInvalidArgument and leaves the injector disarmed. Not thread-safe
/// against concurrent fault_point traffic.
Status set_fault_spec(const std::string& spec);

}  // namespace testing

}  // namespace rdc::exec
