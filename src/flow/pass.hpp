// Pass-manager substrate for the synthesis flow.
//
// A `Design` is the shared context one circuit travels through: it owns the
// evolving artifacts (assigned spec, per-output SOP covers, factor trees,
// AIG, mapped netlist, stats, error rate) plus the FlowReport being filled.
// Artifacts form a linear dependency chain; `produced()` marks one valid
// and invalidates everything downstream, so re-running an upstream pass
// (e.g. `assign` after `espresso`) forces downstream passes to rebuild.
//
// A `Pass` is one small, composable unit of work: it reads/writes Design
// artifacts and reports success as an exec::Status. Pass bodies contain no
// observability or budget plumbing — the Pipeline harness (pipeline.hpp)
// owns the per-pass RDC_SPAN, the per-pass wall-time row in the FlowReport,
// the budget checkpoint and the exception→Status boundary. That is the §11
// inversion: obs/exec integration lives once in the harness instead of
// being hand-planted at every call site.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "espresso/espresso.hpp"
#include "exec/status.hpp"
#include "flow/synthesis_flow.hpp"
#include "mapper/power.hpp"
#include "obs/report.hpp"
#include "pla/cover.hpp"
#include "reliability/assignment.hpp"
#include "reliability/fault_model.hpp"
#include "sop/factor.hpp"
#include "tt/incomplete_spec.hpp"
#include "tt/neighbor_stats.hpp"

namespace rdc::flow {

/// The artifacts a Design owns, in dependency order: producing an artifact
/// invalidates every later one. (`kFactors` is skipped by the `extract`
/// pass, which builds the AIG straight from the covers.)
enum class Artifact : unsigned {
  kAssigned = 0,  ///< working spec after a DC-assignment pass
  kCovers,        ///< per-output two-level covers (espresso / minterm)
  kFactors,       ///< per-output factored expression trees
  kAig,           ///< structurally hashed and-inverter graph
  kNetlist,       ///< technology-mapped gate netlist
  kStats,         ///< area/delay/power analysis of the netlist
  kErrorRate,     ///< exact input-error rate vs the original spec
};

inline constexpr unsigned kNumArtifacts = 7;

/// Stable lower-case artifact name ("covers", "aig", ...).
const char* artifact_name(Artifact artifact);

/// Shared per-circuit context a Pipeline runs its passes over.
///
/// Mutation discipline: passes obtain artifacts through the accessors,
/// rebuild them, and call `produced()` — which is what keeps the validity
/// bits truthful and downstream artifacts invalidated. `require()` is the
/// precondition check every pass issues before touching an upstream
/// artifact.
class Design {
 public:
  /// Empty design (0-input spec); useful as a container element.
  Design() : Design(IncompleteSpec("", 0, 0), FlowOptions{}) {}
  explicit Design(IncompleteSpec spec, FlowOptions options = {});

  /// The original, immutable specification (error rates are measured
  /// against this).
  const IncompleteSpec& spec() const { return spec_; }
  const FlowOptions& options() const { return options_; }

  /// Target cell library (options().library or the built-in generic70).
  const CellLibrary& library() const;

  // --- artifacts ---------------------------------------------------------
  IncompleteSpec& working() { return working_; }
  const IncompleteSpec& working() const { return working_; }
  std::vector<Cover>& covers() { return covers_; }
  const std::vector<Cover>& covers() const { return covers_; }
  std::vector<FactorTree>& factors() { return factors_; }
  const std::vector<FactorTree>& factors() const { return factors_; }
  Aig& aig() { return aig_; }
  const Aig& aig() const { return aig_; }
  Netlist& netlist() { return netlist_; }
  const Netlist& netlist() const { return netlist_; }

  NetlistStats stats;        ///< valid iff has(Artifact::kStats)
  double error_rate = 0.0;   ///< valid iff has(Artifact::kErrorRate)

  /// Which estimator produced `error_rate` (valid iff kErrorRate).
  /// `error_rate` leaves `sampled` false; `error_rate:sampled` fills the
  /// 95% confidence interval and the draws it spent, under any model.
  struct EstimatorInfo {
    bool sampled = false;
    double ci_low = 0.0;
    double ci_high = 0.0;
    std::uint64_t samples = 0;
  };
  EstimatorInfo estimator;

  /// What the reliability assignment pass did (zeros for conventional).
  AssignmentResult assignment;
  /// True once an `assign:*` policy pass recorded its statistics (the
  /// internal fallback pass `assign:zero` does not).
  bool has_assignment = false;
  /// Stable policy literal for report metrics ("ranking_fraction", ...).
  const char* policy = "";

  /// Canonical name of the fault model the run's reliability passes used,
  /// for the report's "fault_model" metric, stamped by
  /// Pass::stamp_fault_model. Every model decides through the same code;
  /// the label is the only trace of the choice on the pure default path
  /// (no annotation, default options model), where it stays empty so
  /// pre-§16 reports stay byte-identical.
  std::string fault_model_label;

  /// Effort dial for the `espresso` pass; run_flow's degradation ladder
  /// lowers it (max_iterations = 0) on its heuristic rung.
  EspressoOptions espresso;

  /// Phase wall-times (written by the Pipeline harness) plus result
  /// metrics (written by passes and the end-of-run stamp).
  obs::FlowReport report;

  // --- validity tracking -------------------------------------------------
  bool has(Artifact artifact) const {
    return (valid_ & bit(artifact)) != 0;
  }
  /// Marks `artifact` valid and invalidates everything downstream of it.
  void produced(Artifact artifact);
  /// Invalidates `artifact` and everything downstream.
  void invalidate(Artifact artifact);
  /// OK when `artifact` is valid, else kInvalidArgument naming the pass
  /// (`who`) and the missing artifact.
  exec::Status require(Artifact artifact, const char* who) const;

  /// Resets the working spec to a pristine copy of the original
  /// specification; every assignment pass starts from here.
  void reset_working() { working_ = spec_; }

  // --- shared caches ------------------------------------------------------
  // Both caches key off spec_, which is immutable for the Design's
  // lifetime, so neither ever needs invalidation.

  /// Per-output NeighborTables of the pristine spec, built on first use.
  /// Every assign pass evaluates its metrics on the input specification
  /// (the paper's static formulation), so one table per output serves all
  /// of them — re-running `assign:*` no longer rebuilds the tables.
  std::span<const NeighborTable> spec_neighbors();

  /// Analyzer for `model`, built on first use and cached by spec value, so
  /// repeated passes under the same annotation share one instance.
  const reliability::FaultModel& fault_model(
      const reliability::FaultModelSpec& model);

 private:
  static unsigned bit(Artifact artifact) {
    return 1u << static_cast<unsigned>(artifact);
  }

  IncompleteSpec spec_;
  FlowOptions options_;
  IncompleteSpec working_;
  std::vector<Cover> covers_;
  std::vector<FactorTree> factors_;
  Aig aig_{0};
  Netlist netlist_{0};
  unsigned valid_ = 0;
  std::vector<NeighborTable> spec_neighbors_;
  bool spec_neighbors_built_ = false;
  std::vector<std::pair<reliability::FaultModelSpec,
                        std::unique_ptr<reliability::FaultModel>>>
      fault_models_;
};

/// One composable unit of flow work.
///
/// Contract: `run` reads its input artifacts (after `require()`-checking
/// them), rebuilds its outputs, and calls Design::produced(). It must not
/// open spans, write FlowReport phase rows or poll budgets itself — the
/// Pipeline harness does all three around every pass. Internal throws
/// (budget trips, injected faults) are caught by the harness and converted
/// to a Status.
class Pass {
 public:
  virtual ~Pass() = default;

  /// Pass kind name ("assign:ranking"). Must be a string literal — span
  /// records keep the pointer past the pass's lifetime.
  virtual const char* name() const = 0;

  /// Report phase family this pass is timed under (a string literal).
  /// Adjacent passes of one family coalesce into a single FlowReport phase
  /// row — `factor`, `aig`, `balance` and `resyn` all report as
  /// "factor_aig" — which keeps rdc.flow.report.v1 byte-compatible with
  /// the pre-pass-manager flow. nullptr keeps the pass out of the table.
  virtual const char* phase() const = 0;

  /// Canonical spec fragment that re-creates this pass, arguments included
  /// ("assign:lcf(0.55,balanced)", "assign:ranking(0.5)@stuckat").
  /// parse_pipeline(spec()) round-trips.
  virtual std::string spec() const { return name(); }

  virtual exec::Status run(Design& design) = 0;

  /// Attaches a grammar-level `@model` annotation. The default rejects —
  /// only reliability-aware passes (assign:* policies, error_rate*)
  /// override via accept_fault_model. kInvalidArgument messages are
  /// offset-free; the parser prefixes the byte offset of the '@'.
  virtual exec::Status set_fault_model(const reliability::FaultModelSpec&);

  /// The attached annotation, if any.
  const std::optional<reliability::FaultModelSpec>& fault_model() const {
    return fault_model_;
  }

 protected:
  /// Implementation for accepting passes' set_fault_model overrides.
  exec::Status accept_fault_model(const reliability::FaultModelSpec& model) {
    fault_model_ = model;
    return {};
  }

  /// Canonical "@model" suffix for spec() ("" when unannotated).
  std::string model_suffix() const {
    return fault_model_ ? "@" + fault_model_->canonical() : std::string();
  }

  /// The model this pass analyzes against: the annotation when present,
  /// the Design-wide option otherwise. Stamps Design::fault_model_label
  /// with it unless the run is on the pure default path.
  const reliability::FaultModelSpec& stamp_fault_model(Design& design) const;

 private:
  std::optional<reliability::FaultModelSpec> fault_model_;
};

/// Creates a pass from a spec-grammar name and argument list. Returns
/// kInvalidArgument (and leaves `out` empty) for unknown names, wrong
/// arities or out-of-range arguments.
exec::Status make_pass(const std::string& name,
                       const std::vector<std::string>& args,
                       std::unique_ptr<Pass>& out);

/// Every registered pass name, in grammar order (for usage text, error
/// messages and the spec fuzzer's dictionary).
std::vector<std::string> pass_names();

}  // namespace rdc::flow
