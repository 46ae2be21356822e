// Pluggable fault models behind one interface (DESIGN.md §16).
//
// The paper's error model — a single input-bit flip on a care minterm — is
// one point in a family of fault scenarios. A FaultModel encapsulates one
// scenario end to end: the exact error rate of an implementation against a
// specification, a sampled estimator with a 95% confidence interval, and the
// per-minterm propagating-event masses that drive DC assignment. Each model
// owns its kernels; the scalar references they are tested against live in
// tests/oracles/error_rate.*.
//
// Concrete models:
//  * bitflip(k)            — k simultaneous input-bit flips, uniform over
//                            pins; k = 1 is the paper's default, whose
//                            exact rate is exact_error_rate's SIMD kernel.
//  * bitflip_weighted(w..) — single flips with non-uniform per-pin weights:
//                            each event (source, pin j) carries weight w_j
//                            and the rate is the weighted fraction of
//                            propagating events.
//  * stuckat               — stuck-at-0/1 input-pin faults. A fault (j, v)
//                            reads every input with bit j == !v as its pin-j
//                            neighbor; its exposure probability is the
//                            fraction of care vectors in that halfspace on
//                            which the implementation differs across pin j,
//                            and the rate is the mean over all 2n faults.
//                            The halfspace normalization is what makes the
//                            model diverge from bitflip on pin-asymmetric
//                            care sets (i.e. whenever DCs matter at all).
//
// A FaultModelSpec is the value-semantics description (parsed from the
// pipeline grammar's `@model` suffix, fingerprinted into cache/journal
// keys); make_fault_model() turns it into the analyzer.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "exec/status.hpp"
#include "tt/incomplete_spec.hpp"
#include "tt/neighbor_stats.hpp"
#include "tt/ternary_function.hpp"

namespace rdc::reliability {

enum class FaultModelKind : std::uint8_t {
  kBitflip = 0,          ///< k-bit input flips (paper default at k = 1)
  kBitflipWeighted = 1,  ///< single flips, per-pin weights
  kStuckAt = 2,          ///< stuck-at-0/1 input-pin faults
};

/// Stable lower-case kind name ("bitflip", "bitflip_weighted", "stuckat").
const char* fault_model_kind_name(FaultModelKind kind);

/// Value-semantics description of a fault model. Default-constructed it is
/// the paper's model, bitflip(1); is_default() gates the compatibility
/// paths (old fingerprints, report labels) and the one algorithm only
/// bitflip(1) has: incremental ranking (assign:ranking_inc).
class FaultModelSpec {
 public:
  /// The paper's default: single-bit flips, uniform over pins.
  FaultModelSpec() = default;

  static FaultModelSpec bitflip(unsigned k = 1);
  static FaultModelSpec bitflip_weighted(std::vector<double> weights);
  static FaultModelSpec stuckat();

  /// Parses a grammar-level model reference: name plus optional argument
  /// list, e.g. ("bitflip", {"2"}) or ("bitflip_weighted", {"1", "0.5"}).
  /// kInvalidArgument for unknown names, bad arities or bad arguments;
  /// `out` is left default-constructed on failure.
  static exec::Status parse(const std::string& name,
                            const std::vector<std::string>& args,
                            FaultModelSpec& out);

  FaultModelKind kind() const { return kind_; }
  /// Flip multiplicity (kBitflip only; 1 otherwise).
  unsigned k() const { return k_; }
  /// Per-pin weights (kBitflipWeighted only; empty otherwise).
  const std::vector<double>& weights() const { return weights_; }

  /// True iff this is the paper's model, bitflip(1). The default model
  /// keeps pre-refactor behavior byte-for-byte: old fingerprints, golden
  /// reports without a "fault_model" key.
  bool is_default() const {
    return kind_ == FaultModelKind::kBitflip && k_ == 1;
  }

  /// Canonical grammar form: "bitflip", "bitflip(2)",
  /// "bitflip_weighted(1,0.5)", "stuckat". parse() round-trips it and the
  /// rendering is a fixed point (canonical forms re-render identically).
  std::string canonical() const;

  /// kInvalidArgument unless the model fits a spec with `num_inputs`
  /// inputs: bitflip(k) needs at least k inputs, bitflip_weighted one
  /// weight per input. run_flow checks this before any pass runs.
  exec::Status check_inputs(unsigned num_inputs) const;

  /// FNV-1a digest of the model identity, mixed into
  /// flow_options_fingerprint for non-default models so serve-cache and
  /// batch-journal keys never alias across models.
  std::uint64_t fingerprint() const;

  bool operator==(const FaultModelSpec& other) const = default;

 private:
  FaultModelKind kind_ = FaultModelKind::kBitflip;
  unsigned k_ = 1;
  std::vector<double> weights_;
};

/// Registered model names, in grammar order (usage text, fuzz dictionary).
std::vector<std::string> fault_model_names();

/// Propagating-event mass a DC minterm would add under each assignment
/// phase. DC assignment (reliability/assignment.hpp) assigns to the phase
/// with the smaller mass and ranks candidates by |if_on - if_off| (the
/// paper's majority weight generalized beyond neighbor counts).
struct MintermEvents {
  double if_on = 0.0;   ///< event mass added if the DC joins the on-set
  double if_off = 0.0;  ///< event mass added if the DC joins the off-set
};

/// A sampled rate with its normal-approximation 95% confidence interval.
struct SampledRate {
  double rate = 0.0;      ///< point estimate
  double variance = 0.0;  ///< estimator variance (for combining estimates)
  double ci_low = 0.0;    ///< 95% CI lower bound, clamped to [0, 1]
  double ci_high = 0.0;   ///< 95% CI upper bound, clamped to [0, 1]
  std::uint64_t samples = 0;  ///< draws actually spent

  double half_width() const { return (ci_high - ci_low) / 2.0; }
};

/// One fault scenario's complete analysis surface. Implementations must be
/// deterministic: exact rates combine integer event counts in a fixed
/// order, so results are bit-identical across SIMD backends and thread
/// counts (the report-byte-determinism contract).
class FaultModel {
 public:
  virtual ~FaultModel() = default;

  const FaultModelSpec& model_spec() const { return spec_; }

  /// Exact error rate of a completely specified implementation against the
  /// care set of `spec` (word-parallel where the model allows).
  virtual double error_rate(const TernaryTruthTable& implementation,
                            const TernaryTruthTable& spec) const = 0;

  /// Assignment events of each DC minterm in `dcs` (the caller's
  /// spec.dc_minterms()), in the same order. `neighbors` is the prebuilt
  /// table of the same function.
  virtual std::vector<MintermEvents> dc_assignment_events(
      const TernaryTruthTable& spec, std::span<const std::uint32_t> dcs,
      const NeighborTable& neighbors) const = 0;

  /// Monte-Carlo estimate with a 95% CI (the `error_rate:sampled` pass).
  /// DC sources count as non-propagating. Draw strategy is model-specific:
  /// single flips (bitflip(1), bitflip_weighted) stratify by pin, each pin
  /// getting an equal share of `samples` (at least one); bitflip(k > 1)
  /// draws (source, uniform k-subset) events unstratified; stuck-at
  /// stratifies by fault halfspace.
  virtual SampledRate sampled_rate(const TernaryTruthTable& implementation,
                                   const TernaryTruthTable& spec,
                                   std::uint64_t samples, Rng& rng) const = 0;

  /// Mean per-output exact rate of a multi-output pair.
  double error_rate(const IncompleteSpec& implementation,
                    const IncompleteSpec& spec) const;

  /// Mean per-output sampled rate; variances combine as (1/m^2) * sum.
  SampledRate sampled_rate(const IncompleteSpec& implementation,
                           const IncompleteSpec& spec, std::uint64_t samples,
                           Rng& rng) const;

 protected:
  explicit FaultModel(FaultModelSpec spec) : spec_(std::move(spec)) {}

 private:
  FaultModelSpec spec_;
};

/// Builds the analyzer for a model description.
std::unique_ptr<FaultModel> make_fault_model(const FaultModelSpec& spec);

// --- stuck-at detectability (the inadmissible-class analysis) -------------

/// Whether a stuck-at fault can ever be exposed by a care input vector.
enum class FaultDetectability : std::uint8_t {
  /// Some care source has a care pin-neighbor of the opposite spec value:
  /// the fault propagates under every correct implementation.
  kDetectable = 0,
  /// Exposure hinges on DC assignment: every potential witness pairs a care
  /// source with a DC neighbor, so the assignment decides testability.
  kAssignmentDependent = 1,
  /// No care source can expose the fault under any DC assignment — the
  /// fault is inherently untestable.
  kUntestable = 2,
};

const char* fault_detectability_name(FaultDetectability detectability);

/// One classified stuck-at fault.
struct StuckAtFault {
  unsigned pin = 0;
  bool stuck_at_one = false;  ///< false = stuck-at-0, true = stuck-at-1
  FaultDetectability detectability = FaultDetectability::kUntestable;
};

/// Classification of all 2n stuck-at input faults of one function.
struct DetectabilityReport {
  /// Faults in (pin asc, stuck-at-0 before stuck-at-1) order; 2n entries.
  std::vector<StuckAtFault> faults;
  unsigned detectable = 0;
  unsigned assignment_dependent = 0;
  unsigned untestable = 0;

  /// Functions with any inherently untestable stuck-at fault form the
  /// inadmissible class: no test set can certify them fault-free.
  bool inadmissible() const { return untestable > 0; }
};

/// Classifies every stuck-at input fault of `spec` against its care set
/// (implementations are assumed to agree with the spec on care minterms).
DetectabilityReport classify_stuckat_faults(const TernaryTruthTable& spec);

/// Total inherently untestable stuck-at faults across all outputs.
unsigned untestable_stuckat_faults(const IncompleteSpec& spec);

}  // namespace rdc::reliability
