#include "flow/pass.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <optional>
#include <utility>

#include "aig/balance.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "decomp/renode.hpp"
#include "espresso/espresso.hpp"
#include "mapper/tree_map.hpp"
#include "obs/counters.hpp"
#include "reliability/fault_model.hpp"
#include "sop/extract.hpp"

namespace rdc::flow {

const char* artifact_name(Artifact artifact) {
  switch (artifact) {
    case Artifact::kAssigned: return "assigned";
    case Artifact::kCovers: return "covers";
    case Artifact::kFactors: return "factors";
    case Artifact::kAig: return "aig";
    case Artifact::kNetlist: return "netlist";
    case Artifact::kStats: return "stats";
    case Artifact::kErrorRate: return "error_rate";
  }
  return "unknown";
}

Design::Design(IncompleteSpec spec, const CellLibrary* library)
    : spec_(std::move(spec)),
      library_(library),
      working_(spec_),
      aig_(spec_.num_inputs()),
      netlist_(spec_.num_inputs()) {
  // The working copy of the spec is a legitimate starting artifact: a
  // pipeline may begin at `espresso` with whatever assignment the input
  // already carries.
  valid_ = bit(Artifact::kAssigned);
}

const CellLibrary& Design::library() const {
  return library_ != nullptr ? *library_ : CellLibrary::generic70();
}

void Design::produced(Artifact artifact) {
  invalidate(artifact);
  valid_ |= bit(artifact);
}

void Design::invalidate(Artifact artifact) {
  // Clear `artifact` and every later one in the chain.
  const unsigned first = static_cast<unsigned>(artifact);
  for (unsigned a = first; a < kNumArtifacts; ++a)
    valid_ &= ~(1u << a);
}

std::span<const NeighborTable> Design::spec_neighbors() {
  if (!spec_neighbors_built_) {
    spec_neighbors_.reserve(spec_.num_outputs());
    for (const TernaryTruthTable& f : spec_.outputs())
      spec_neighbors_.emplace_back(f);
    spec_neighbors_built_ = true;
  }
  return spec_neighbors_;
}

const reliability::FaultModel& Design::fault_model(
    const reliability::FaultModelSpec& model) {
  for (const auto& [spec, analyzer] : fault_models_)
    if (spec == model) return *analyzer;
  fault_models_.emplace_back(model, reliability::make_fault_model(model));
  return *fault_models_.back().second;
}

exec::Result<std::span<DcCandidates>> Design::dc_candidates(
    const reliability::FaultModelSpec& model,
    std::vector<DcCandidates>& scratch) {
  if (exec::Status status = model.check_inputs(spec_.num_inputs());
      !status.ok())
    return status;
  if (candidates_kept_ && candidates_model_ == model)
    return std::span<DcCandidates>(candidates_);
  const bool keep = candidates_model_ == model;
  if (!keep) {
    candidates_model_ = model;
    candidates_ = {};  // frees the previous model's lists
    candidates_kept_ = false;
  }
  const reliability::FaultModel& analyzer = fault_model(model);
  const std::span<const NeighborTable> tables = spec_neighbors();
  std::vector<DcCandidates> lists;
  lists.reserve(spec_.num_outputs());
  for (unsigned o = 0; o < spec_.num_outputs(); ++o)
    lists.push_back(rdc::dc_candidates(spec_.output(o), tables[o], analyzer));
  std::vector<DcCandidates>& home = keep ? candidates_ : scratch;
  home = std::move(lists);
  candidates_kept_ = keep;
  return std::span<DcCandidates>(home);
}

exec::Status Pass::set_fault_model(const reliability::FaultModelSpec&) {
  return exec::Status(exec::StatusCode::kInvalidArgument,
                      std::string("pass '") + name() +
                          "' does not accept a fault model annotation");
}

std::string model_annotation(const reliability::FaultModelSpec& model) {
  std::string annotation = "@";
  annotation.append(model.canonical());
  return annotation;
}

const reliability::FaultModelSpec& Pass::stamp_fault_model(
    Design& design) const {
  static const reliability::FaultModelSpec kPaperModel;
  if (!fault_model_.has_value()) return kPaperModel;
  design.fault_model_label = fault_model_->canonical();
  return *fault_model_;
}

exec::Status Design::require(Artifact artifact, const char* who) const {
  if (has(artifact)) return {};
  return exec::Status(exec::StatusCode::kInvalidArgument,
                      std::string(who) + ": requires the '" +
                          artifact_name(artifact) +
                          "' artifact; run a pass that produces it first");
}

namespace {

exec::Status invalid(std::string message) {
  return exec::Status(exec::StatusCode::kInvalidArgument, std::move(message));
}

bool parse_double_arg(const std::string& text, double& out) {
  const char* begin = text.c_str();
  char* end = nullptr;
  out = std::strtod(begin, &end);
  return end == begin + text.size() && !text.empty();
}

bool parse_unsigned_arg(const std::string& text, unsigned& out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

// --- DC assignment -------------------------------------------------------

/// Per assign kind, in AssignPass::Kind order: the pass name, the
/// report's "policy" literal and the knob's default. The ladder's fallback
/// `assign:zero` records no policy.
struct AssignKindInfo {
  const char* name;
  const char* policy;
  double default_param;
};
constexpr AssignKindInfo kAssignKinds[] = {
    {"assign:conventional", "conventional", 0.0},
    {"assign:ranking", "ranking_fraction", 0.5},
    {"assign:ranking_inc", "ranking_incremental", 0.5},
    {"assign:lcf", "lcf_threshold", 0.55},
    {"assign:all", "all_reliability", 0.0},
    {"assign:zero", nullptr, 0.0},
};

class AssignPass final : public Pass {
 public:
  enum class Kind { kConventional, kRanking, kRankingInc, kLcf, kAll, kZero };

  AssignPass(Kind kind, double param, bool balanced)
      : kind_(kind), param_(param), balanced_(balanced) {}

  const char* name() const override { return info().name; }

  const char* phase() const override { return "dc_assign"; }

  std::string spec() const override {
    switch (kind_) {
      case Kind::kRanking:
      case Kind::kRankingInc:
        return std::string(name()) + "(" + format_double(param_) + ")" +
               model_suffix();
      case Kind::kLcf:
        return std::string(name()) + "(" + format_double(param_) +
               (balanced_ ? ",balanced)" : ")") + model_suffix();
      case Kind::kAll:
        return std::string(name()) + model_suffix();
      default:
        return name();
    }
  }

  exec::Status set_fault_model(
      const reliability::FaultModelSpec& model) override {
    switch (kind_) {
      case Kind::kRanking:
      case Kind::kRankingInc:
      case Kind::kLcf:
      case Kind::kAll:
        return accept_fault_model(model);
      default:
        // conventional/zero never consult a fault model — annotating them
        // would silently do nothing, so reject like any other pass.
        return Pass::set_fault_model(model);
    }
  }

  exec::Status run(Design& design) override {
    design.reset_working();
    IncompleteSpec& working = design.working();
    AssignmentResult result;
    // The reliability policies decide from the Design's candidate lists
    // and NeighborTables: reset_working() just made working == spec, and
    // all of them evaluate their metrics on the input specification, so
    // both stay valid however often the pass re-runs.
    std::vector<DcCandidates> scratch;
    const auto candidates = [&] {
      return design.dc_candidates(stamp_fault_model(design), scratch);
    };
    switch (kind_) {
      case Kind::kConventional:
        // All DCs stay with the downstream minimizer (the baseline).
        break;
      case Kind::kRanking:
      case Kind::kAll: {
        auto lists = candidates();
        if (!lists.ok()) return lists.status();
        result = ranking_assign(working, kind_ == Kind::kAll ? 1.0 : param_,
                                *lists);
        break;
      }
      case Kind::kRankingInc: {
        // Incremental neighbor-count maintenance exists for bitflip(1)
        // only; any other model falls back to the static ranking (the same
        // decisions as assign:ranking under that model).
        if (stamp_fault_model(design).is_default()) {
          result = ranking_assign_incremental(working, param_,
                                              design.spec_neighbors());
        } else {
          auto lists = candidates();
          if (!lists.ok()) return lists.status();
          result = ranking_assign(working, param_, *lists);
        }
        break;
      }
      case Kind::kLcf: {
        auto lists = candidates();
        if (!lists.ok()) return lists.status();
        result = lcf_assign(working, param_, balanced_, *lists,
                            design.spec_neighbors());
        break;
      }
      case Kind::kZero:
        // Degradation-ladder fallback: every remaining DC to the paper's
        // power-friendly default phase, no ranking work at all. Leaves the
        // report's assignment statistics untouched.
        for (auto& f : working.outputs())
          for (const std::uint32_t m : f.dc_minterms())
            f.set_phase(m, Phase::kZero);
        design.produced(Artifact::kAssigned);
        return {};
    }
    design.assignment = result;
    design.has_assignment = true;
    design.policy = info().policy;
    design.produced(Artifact::kAssigned);
    return {};
  }

 private:
  const AssignKindInfo& info() const {
    return kAssignKinds[static_cast<int>(kind_)];
  }

  Kind kind_;
  double param_;
  bool balanced_;
};

// --- covers --------------------------------------------------------------

class EspressoPass final : public Pass {
 public:
  /// `max_iterations` < 0 is the bare `espresso`: EspressoOptions{}.
  explicit EspressoPass(int max_iterations) : max_iterations_(max_iterations) {}

  const char* name() const override { return "espresso"; }
  const char* phase() const override { return "espresso"; }

  std::string spec() const override {
    if (max_iterations_ < 0) return name();
    return "espresso(" + std::to_string(max_iterations_) + ")";
  }

  exec::Status run(Design& design) override {
    if (exec::Status s = design.require(Artifact::kAssigned, name()); !s.ok())
      return s;
    EspressoOptions options;
    if (max_iterations_ >= 0)
      options.max_iterations = static_cast<unsigned>(max_iterations_);
    IncompleteSpec& working = design.working();
    // Conventional assignment of whatever an upstream reliability pass
    // left as DC — exactly what handing the partially assigned .pla to the
    // optimizer does in the paper's flow. Outputs are independent, so the
    // ESPRESSO passes fan out over the process-wide pool (RDC_THREADS).
    design.covers().assign(working.num_outputs(), Cover(working.num_inputs()));
    ThreadPool::global().parallel_for(
        0, working.num_outputs(), [&](std::uint64_t o) {
          design.covers()[o] = conventional_assign(
              working.output(static_cast<unsigned>(o)), options);
        });
    design.produced(Artifact::kCovers);
    return {};
  }

 private:
  int max_iterations_;
};

class MintermCoversPass final : public Pass {
 public:
  const char* name() const override { return "covers:minterm"; }
  /// Untimed: the pre-pass-manager fallback built these covers outside any
  /// report phase, and raw minterm listing is not a flow phase worth a row.
  const char* phase() const override { return nullptr; }

  exec::Status run(Design& design) override {
    if (exec::Status s = design.require(Artifact::kAssigned, name()); !s.ok())
      return s;
    design.covers().clear();
    design.covers().reserve(design.working().num_outputs());
    for (const auto& f : design.working().outputs())
      design.covers().push_back(Cover::from_phase(f, Phase::kOne));
    design.produced(Artifact::kCovers);
    return {};
  }
};

// --- restructuring -------------------------------------------------------

class FactorPass final : public Pass {
 public:
  const char* name() const override { return "factor"; }
  const char* phase() const override { return "factor_aig"; }

  exec::Status run(Design& design) override {
    if (exec::Status s = design.require(Artifact::kCovers, name()); !s.ok())
      return s;
    design.factors().clear();
    design.factors().reserve(design.covers().size());
    for (const Cover& cover : design.covers())
      design.factors().push_back(factor(cover));
    design.produced(Artifact::kFactors);
    return {};
  }
};

class ExtractPass final : public Pass {
 public:
  explicit ExtractPass(unsigned max_kernels) : max_kernels_(max_kernels) {}

  const char* name() const override { return "extract"; }
  const char* phase() const override { return "factor_aig"; }

  std::string spec() const override {
    if (max_kernels_ == kDefaultMaxKernels) return name();
    return "extract(" + std::to_string(max_kernels_) + ")";
  }

  exec::Status run(Design& design) override {
    if (exec::Status s = design.require(Artifact::kCovers, name()); !s.ok())
      return s;
    Aig aig(design.spec().num_inputs());
    const ExtractionResult extraction =
        build_with_extraction(aig, design.covers(), max_kernels_);
    for (const std::uint32_t out : extraction.outputs) aig.add_output(out);
    design.aig() = std::move(aig);
    design.produced(Artifact::kAig);
    return {};
  }

  static constexpr unsigned kDefaultMaxKernels = 32;

 private:
  unsigned max_kernels_;
};

class AigPass final : public Pass {
 public:
  const char* name() const override { return "aig"; }
  const char* phase() const override { return "factor_aig"; }

  exec::Status run(Design& design) override {
    if (exec::Status s = design.require(Artifact::kFactors, name()); !s.ok())
      return s;
    Aig aig(design.spec().num_inputs());
    for (const FactorTree& tree : design.factors())
      aig.add_output(aig.build(tree));
    design.aig() = std::move(aig);
    design.produced(Artifact::kAig);
    return {};
  }
};

class BalancePass final : public Pass {
 public:
  const char* name() const override { return "balance"; }
  const char* phase() const override { return "factor_aig"; }

  exec::Status run(Design& design) override {
    if (exec::Status s = design.require(Artifact::kAig, name()); !s.ok())
      return s;
    design.aig() = balance(design.aig());
    design.produced(Artifact::kAig);
    return {};
  }
};

class ResynPass final : public Pass {
 public:
  const char* name() const override { return "resyn"; }
  const char* phase() const override { return "factor_aig"; }

  exec::Status run(Design& design) override {
    if (exec::Status s = design.require(Artifact::kAig, name()); !s.ok())
      return s;
    // Second-opinion restructuring: balance, refactor nodes against their
    // satisfiability DCs (output-preserving), keep the result only when it
    // shrinks, balance again.
    Aig aig = balance(design.aig());
    RenodeOptions options;
    options.reliability_assign = false;
    RenodeResult refactored = renode_and_assign(aig, options);
    if (refactored.network.num_ands() < aig.num_ands())
      aig = std::move(refactored.network);
    design.aig() = balance(aig);
    design.produced(Artifact::kAig);
    return {};
  }
};

// --- mapping and analysis ------------------------------------------------

class MapPass final : public Pass {
 public:
  explicit MapPass(MapObjective objective) : objective_(objective) {}

  const char* name() const override {
    return objective_ == MapObjective::kDelay ? "map:delay" : "map:power";
  }
  const char* phase() const override { return "map"; }

  exec::Status run(Design& design) override {
    if (exec::Status s = design.require(Artifact::kAig, name()); !s.ok())
      return s;
    // The pre-map AIG size is the report's structural metric; stamped here
    // so it reflects whatever balancing/resynthesis ran upstream.
    obs::count(obs::Counter::kAigAndsBuilt, design.aig().num_ands());
    design.report.metrics.set("aig_ands", design.aig().num_ands());
    MapOptions options;
    options.objective = objective_;
    design.netlist() = map_aig(design.aig(), design.library(), options);
    design.produced(Artifact::kNetlist);
    return {};
  }

 private:
  MapObjective objective_;
};

class AnalyzePass final : public Pass {
 public:
  const char* name() const override { return "analyze"; }
  const char* phase() const override { return "analyze"; }

  exec::Status run(Design& design) override {
    if (exec::Status s = design.require(Artifact::kNetlist, name()); !s.ok())
      return s;
    design.stats = analyze_netlist(design.netlist(), design.library());
    design.produced(Artifact::kStats);
    return {};
  }
};

/// Seed of every `error_rate:sampled` run's Rng.
constexpr std::uint64_t kSampleSeed = 0x9e3779b97f4a7c15ull;

/// Default Monte-Carlo budget when sampling (the `error_rate:sampled(1e6)`
/// canonical default).
constexpr std::uint64_t kDefaultErrorRateSamples = 1000000;

/// `error_rate` (exact) and `error_rate:sampled(N)`: the fault model's
/// rate of the completed working spec against the original spec.
class ErrorRatePass final : public Pass {
 public:
  /// No sample count: the exact estimator.
  explicit ErrorRatePass(std::optional<std::uint64_t> samples = {})
      : samples_(samples) {}

  const char* name() const override {
    return samples_ ? "error_rate:sampled" : "error_rate";
  }
  const char* phase() const override { return "error_rate"; }

  std::string spec() const override {
    if (!samples_ || *samples_ == kDefaultErrorRateSamples)
      return std::string(name()) + model_suffix();
    return std::string(name()) + "(" + std::to_string(*samples_) + ")" +
           model_suffix();
  }

  exec::Status set_fault_model(
      const reliability::FaultModelSpec& model) override {
    return accept_fault_model(model);
  }

  exec::Status run(Design& design) override {
    // The covers pass is what completes the working spec, which doubles as
    // the implementation the rate is measured on.
    if (exec::Status s = design.require(Artifact::kCovers, name()); !s.ok())
      return s;
    const reliability::FaultModelSpec& model = stamp_fault_model(design);
    design.estimator = {};
    if (samples_) {
      // A fixed seed: the report is byte-deterministic for a fixed
      // (spec, pipeline) at any thread count.
      Rng rng(kSampleSeed);
      const reliability::SampledRate estimate =
          design.fault_model(model).sampled_rate(
              design.working(), design.spec(), *samples_, rng);
      design.error_rate = estimate.rate;
      design.estimator.sampled = true;
      design.estimator.ci_low = estimate.ci_low;
      design.estimator.ci_high = estimate.ci_high;
      design.estimator.samples = estimate.samples;
    } else {
      design.error_rate =
          design.fault_model(model).error_rate(design.working(), design.spec());
    }
    design.produced(Artifact::kErrorRate);
    return {};
  }

 private:
  std::optional<std::uint64_t> samples_;
};

// --- factory -------------------------------------------------------------

exec::Status check_arity(const std::string& name,
                         const std::vector<std::string>& args,
                         std::size_t max_args) {
  if (args.size() <= max_args) return {};
  return invalid("pass '" + name + "' takes at most " +
                 std::to_string(max_args) + " argument" +
                 (max_args == 1 ? "" : "s"));
}

exec::Status make_assign(AssignPass::Kind kind, const std::string& name,
                         const std::vector<std::string>& args,
                         std::unique_ptr<Pass>& out) {
  const bool takes_param =
      kind == AssignPass::Kind::kRanking ||
      kind == AssignPass::Kind::kRankingInc || kind == AssignPass::Kind::kLcf;
  const bool takes_balanced = kind == AssignPass::Kind::kLcf;
  if (exec::Status s =
          check_arity(name, args, takes_param ? (takes_balanced ? 2 : 1) : 0);
      !s.ok())
    return s;
  double param = kAssignKinds[static_cast<int>(kind)].default_param;
  bool balanced = false;
  if (!args.empty()) {
    if (!parse_double_arg(args[0], param))
      return invalid("pass '" + name + "': '" + args[0] +
                     "' is not a number");
    if (kind == AssignPass::Kind::kLcf) {
      if (!(param > 0.0 && param < 1.0))
        return invalid("pass '" + name + "': threshold must be in (0, 1), got " +
                       args[0]);
    } else if (!(param >= 0.0 && param <= 1.0)) {
      return invalid("pass '" + name + "': fraction must be in [0, 1], got " +
                     args[0]);
    }
  }
  if (args.size() > 1) {
    if (args[1] != "balanced")
      return invalid("pass '" + name + "': unknown flag '" + args[1] +
                     "' (expected 'balanced')");
    balanced = true;
  }
  out = std::make_unique<AssignPass>(kind, param, balanced);
  return {};
}

}  // namespace

const char* assign_policy(const Pass& pass) {
  for (const AssignKindInfo& kind : kAssignKinds)
    if (std::strcmp(pass.name(), kind.name) == 0) return kind.policy;
  return nullptr;
}

exec::Status make_pass(const std::string& name,
                       const std::vector<std::string>& args,
                       std::unique_ptr<Pass>& out) {
  out.reset();
  for (std::size_t kind = 0; kind < std::size(kAssignKinds); ++kind)
    if (name == kAssignKinds[kind].name)
      return make_assign(static_cast<AssignPass::Kind>(kind), name, args, out);
  if (name == "espresso") {
    if (exec::Status s = check_arity(name, args, 1); !s.ok()) return s;
    int max_iterations = -1;
    if (!args.empty()) {
      unsigned value = 0;
      if (!parse_unsigned_arg(args[0], value) || value > 1000)
        return invalid("pass 'espresso': '" + args[0] +
                       "' is not an iteration count in [0, 1000]");
      max_iterations = static_cast<int>(value);
    }
    out = std::make_unique<EspressoPass>(max_iterations);
    return {};
  }
  if (name == "covers:minterm") {
    if (exec::Status s = check_arity(name, args, 0); !s.ok()) return s;
    out = std::make_unique<MintermCoversPass>();
    return {};
  }
  if (name == "factor") {
    if (exec::Status s = check_arity(name, args, 0); !s.ok()) return s;
    out = std::make_unique<FactorPass>();
    return {};
  }
  if (name == "extract") {
    if (exec::Status s = check_arity(name, args, 1); !s.ok()) return s;
    unsigned max_kernels = ExtractPass::kDefaultMaxKernels;
    if (!args.empty() &&
        (!parse_unsigned_arg(args[0], max_kernels) || max_kernels == 0 ||
         max_kernels > 4096))
      return invalid("pass 'extract': '" + args[0] +
                     "' is not a kernel count in [1, 4096]");
    out = std::make_unique<ExtractPass>(max_kernels);
    return {};
  }
  if (name == "aig") {
    if (exec::Status s = check_arity(name, args, 0); !s.ok()) return s;
    out = std::make_unique<AigPass>();
    return {};
  }
  if (name == "balance") {
    if (exec::Status s = check_arity(name, args, 0); !s.ok()) return s;
    out = std::make_unique<BalancePass>();
    return {};
  }
  if (name == "resyn") {
    if (exec::Status s = check_arity(name, args, 0); !s.ok()) return s;
    out = std::make_unique<ResynPass>();
    return {};
  }
  if (name == "map:delay" || name == "map:power") {
    if (exec::Status s = check_arity(name, args, 0); !s.ok()) return s;
    out = std::make_unique<MapPass>(name == "map:delay" ? MapObjective::kDelay
                                                        : MapObjective::kArea);
    return {};
  }
  if (name == "analyze") {
    if (exec::Status s = check_arity(name, args, 0); !s.ok()) return s;
    out = std::make_unique<AnalyzePass>();
    return {};
  }
  if (name == "error_rate") {
    if (exec::Status s = check_arity(name, args, 0); !s.ok()) return s;
    out = std::make_unique<ErrorRatePass>();
    return {};
  }
  if (name == "error_rate:sampled") {
    if (exec::Status s = check_arity(name, args, 1); !s.ok()) return s;
    std::uint64_t samples = kDefaultErrorRateSamples;
    if (!args.empty()) {
      // Double grammar so scientific notation works ("1e6"), but the value
      // must be a whole draw count in [1, 1e9].
      double value = 0.0;
      if (!parse_double_arg(args[0], value) || !(value >= 1.0) ||
          !(value <= 1e9) || value != std::floor(value))
        return invalid("pass 'error_rate:sampled': '" + args[0] +
                       "' is not a sample count in [1, 1e9]");
      samples = static_cast<std::uint64_t>(value);
    }
    out = std::make_unique<ErrorRatePass>(samples);
    return {};
  }
  return invalid("unknown pass '" + name + "'");
}

std::vector<std::string> pass_names() {
  return {"assign:conventional", "assign:ranking", "assign:ranking_inc",
          "assign:lcf",          "assign:all",     "assign:zero",
          "espresso",            "covers:minterm", "factor",
          "extract",             "aig",            "balance",
          "resyn",               "map:delay",      "map:power",
          "analyze",             "error_rate",     "error_rate:sampled"};
}

}  // namespace rdc::flow
