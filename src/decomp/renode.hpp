// Nodal decomposition with internal don't-care reassignment — the Section-4
// extension of the paper ("renode" in ABC terms).
//
// The AIG is partitioned into fanout-free nodes (tree roots); each node's
// local function over its boundary signals is extracted by exhaustive
// simulation. Boundary patterns that never occur are satisfiability don't
// cares (SDCs). Patterns that occur, but only on vectors where flipping the
// node's value reaches no primary output, are observability don't cares
// (ODCs). The DCs are assigned with the paper's reliability-driven LC^f
// algorithm and the node is resynthesized.
//
// SDC-only rewrites are compositionally safe: an SDC pattern never occurs
// on any reachable input vector, so no signal in the network changes value,
// and `renode_and_assign` rewrites every node in one walk. ODC rewrites
// change internal signal values, so combining them across nodes naively is
// unsound (the classic CODC compatibility problem); `renode_with_odcs`
// stays sound by rewriting ONE node per walk against don't cares extracted
// from the *current* network. Both preserve the primary outputs exactly
// (tests verify this).
#pragma once

#include <cstdint>

#include "aig/aig.hpp"
#include "common/rng.hpp"

namespace rdc {

struct RenodeOptions {
  unsigned max_node_inputs = 10;   ///< nodes with more boundary signals are copied verbatim
  double lcf_threshold = 0.55;     ///< LC^f gate for the reliability pass
  bool reliability_assign = true;  ///< false: plain DC minimization only
};

struct RenodeResult {
  Aig network;                     ///< rebuilt AIG, outputs unchanged
  std::size_t nodes_total = 0;     ///< tree roots visited
  std::size_t nodes_resynthesized = 0;
  std::uint64_t sdc_patterns = 0;  ///< local DC patterns discovered
  std::uint64_t dcs_assigned = 0;  ///< of those, assigned by the LC^f pass
};

struct OdcRenodeResult {
  Aig network;
  unsigned rewrites = 0;           ///< nodes resynthesized
  std::uint64_t sdc_patterns = 0;  ///< across all rewritten nodes
  std::uint64_t odc_patterns = 0;  ///< observability-only DC patterns
  std::uint64_t dcs_assigned = 0;  ///< by the reliability pass
};

/// Decomposes, extracts SDCs, reassigns and resynthesizes. Input count must
/// be <= 20 (exhaustive simulation).
RenodeResult renode_and_assign(const Aig& aig,
                               const RenodeOptions& options = {});

/// Iteratively rewrites nodes against their SDC ∪ ODC sets, one node per
/// walk and at most `max_rewrites` in all. Requires <= 20 inputs.
OdcRenodeResult renode_with_odcs(const Aig& aig,
                                 const RenodeOptions& options = {},
                                 unsigned max_rewrites = 64);

/// Monte-Carlo internal masking metric: fraction of (random input vector,
/// random AND node output flip) events that change at least one primary
/// output. Lower is better.
double internal_error_rate(const Aig& aig, unsigned samples, Rng& rng);

}  // namespace rdc
