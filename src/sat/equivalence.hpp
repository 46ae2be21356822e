// SAT-based combinational equivalence checking (miter construction).
//
// The exhaustive simulators top out at 20 inputs; the SAT path proves
// equivalence (or produces a counterexample vector) independent of input
// count. `rdcsyn_cli cec` is its caller; no flow pass runs it.
#pragma once

#include <cstdint>
#include <optional>

#include "aig/aig.hpp"
#include "exec/status.hpp"

namespace rdc {

struct EquivalenceResult {
  bool equivalent = false;
  /// A distinguishing input vector when not equivalent (bit i = input i).
  std::uint32_t counterexample = 0;
  /// Output index that differs on the counterexample.
  unsigned failing_output = 0;
  /// OK for a decided query. When the exec budget cut the solve short the
  /// query is UNDECIDED: equivalent stays false (fail safe — callers must
  /// not certify a pass on a timed-out check) and this carries the code.
  exec::Status status;
};

/// Checks that two AIGs with identical interfaces compute the same outputs.
EquivalenceResult check_equivalence(const Aig& a, const Aig& b);

}  // namespace rdc
