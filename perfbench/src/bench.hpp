// Shared pieces of the end-to-end benchmark: run configuration, the
// per-run outcome every workload fills, the in-memory span recorder of
// the traced run, and the output checks.
//
// The benchmark drives only public entry points of the library and times
// each call from here, so the layers under src/ are measured from outside
// and stay unchanged.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "flow/pass.hpp"
#include "flow/pipeline.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"

namespace perfbench {

std::uint64_t now_ns();
double ms_between(std::uint64_t start_ns, std::uint64_t end_ns);

/// The default canonical pipeline every flow-shaped workload runs.
inline constexpr const char* kFlowPipeline =
    "assign:ranking(0.5) | espresso | factor | aig | map:power | analyze | "
    "error_rate";

/// The Table-1 circuits whose cold flow takes tens of milliseconds: the
/// serve_cold request mix, and the warm-up set of flow_table1.
inline constexpr const char* kFastCircuits[] = {"bench", "fout", "p3",   "p1",
                                                "exp",   "test4", "exam"};

/// setup_s is the median of this many set-ups of the workload (3 for
/// flow_table1, whose set-up is a second of annealing).
inline constexpr int kSetupRepeats = 9;

/// Every workload first runs untimed for this long. A fresh process in a
/// virtual machine runs fork- and allocation-heavy code up to twice as
/// slowly for its first seconds, while the guest's memory warms up.
inline constexpr double kWarmupSeconds = 3.0;

/// Calls `step()` until kWarmupSeconds have passed (at least once).
template <typename Step>
void warm_up(Step&& step) {
  const std::uint64_t start = now_ns();
  do {
    step();
  } while (ms_between(start, now_ns()) < kWarmupSeconds * 1e3);
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Per-run scratch directory (journals, the daemon socket); relative to
  /// the working directory so unix socket paths stay short.
  std::filesystem::path work_dir;
  /// Where the traced run writes its spans.
  std::filesystem::path trace_file;
};

/// Quality of the implementations one round of the workload produced.
/// Exact and deterministic for a fixed seed.
struct Quality {
  double error_rate_mean = 0.0;
  double area_total = 0.0;
  double power_total_uw = 0.0;
  double delay_mean_ps = 0.0;
};

/// What one run measured. `latency_ms` holds one sample per timed item;
/// `layers` holds the per-layer metrics (traced run only).
struct Outcome {
  std::vector<double> setup_s;  ///< one entry per set-up repetition
  double timed_s = 0.0;         ///< time the timed items took
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_ms;
  Quality quality;
  std::map<std::string, double> layers;
  std::map<std::string, double> span_ms;  ///< self time per round, by span
  std::vector<std::string> problems;  ///< first few failure reasons

  /// Counts one attempted item; `problem` non-empty marks it failed.
  void item(const std::string& problem);
};

/// Per-workload sampling rule: the tail latency is read at `tail_quantile`,
/// and the timed loop runs until it has `min_samples` items, so that at
/// least ten samples lie beyond that quantile in every run.
struct SamplingRule {
  double tail_quantile;
  std::size_t min_samples;
};
SamplingRule sampling_rule(double tail_quantile);

// --- statistics ---------------------------------------------------------------

double median(std::vector<double> values);
/// Harrell-Davis estimate of quantile q: a Beta-weighted mean of the order
/// statistics around rank q * n. Where q falls between the latencies of
/// two different circuits, it averages many samples of both instead of
/// reading the single extreme sample of one, which keeps the figure steady
/// from run to run.
double quantile(std::vector<double> values, double q);
/// Samples strictly above the rank quantile(values, q) reads from.
std::size_t samples_beyond(std::size_t n, double q);

// --- tracing ----------------------------------------------------------------

/// In-memory span recorder: spans are kept until the run ends and then
/// written out in one piece. Spans of one item share `item`.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  struct Span {
    std::string name;
    std::uint32_t parent = kNoParent;
    std::uint64_t item = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  std::uint32_t open(std::string name, std::uint64_t item,
                     std::uint32_t parent = kNoParent);
  void close(std::uint32_t id);
  /// Adds a span timed elsewhere (by another thread).
  std::uint32_t add(std::string name, std::uint64_t item,
                    std::uint32_t parent, std::uint64_t start_ns,
                    std::uint64_t end_ns);

  /// Sum over spans of each name of duration minus the part of it its
  /// child spans cover, in milliseconds.
  std::map<std::string, double> self_ms() const;
  /// Writes every span as JSON lines; false on I/O failure.
  bool write(const std::filesystem::path& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span; a null tracer makes it a no-op.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string_view name, std::uint64_t item,
            std::uint32_t parent = Tracer::kNoParent)
      : tracer_(tracer),
        id_(tracer ? tracer->open(std::string(name), item, parent)
                   : Tracer::kNoParent) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

// --- pipelines --------------------------------------------------------------

/// Parses a pipeline spec the benchmark itself wrote; a parse failure is a
/// benchmark bug and throws.
rdc::flow::Pipeline must_parse(const std::string& spec);

/// The traced form of a pipeline: one one-pass Pipeline per pass, run in
/// order on the same Design. Artifacts persist in the Design, so this is
/// the code path of the full pipeline with a span per pass.
std::vector<rdc::flow::Pipeline> split_passes(const rdc::flow::Pipeline& p);

/// Layer a pass's span is booked under (see README.md's layer table).
std::string layer_of(const rdc::flow::Pass& pass);

/// Runs `passes` on `design`, one span per pass under `parent`. Returns
/// the first failure.
rdc::exec::Status run_traced(const std::vector<rdc::flow::Pipeline>& passes,
                             rdc::flow::Design& design, Tracer& tracer,
                             std::uint64_t item, std::uint32_t parent);

/// Per-layer counts a traced run accumulates item by item.
struct LayerCounts {
  double cubes = 0.0;
  double literals = 0.0;
  double aig_ands = 0.0;
  double gates = 0.0;
  double dc_assigned = 0.0;
  /// Per-output error_rate evaluations on the default fault model, the
  /// base of reliability.tracker_incremental_ratio.
  std::uint64_t default_evaluations = 0;

  /// Adds a Design the full flow pipeline ran on.
  void add_flow(const rdc::flow::Design& design);
  /// Writes these counts and the library's obs counters into the
  /// per-layer metrics, per round.
  void report(int rounds, Outcome& out) const;
};

// --- output checks ----------------------------------------------------------

/// Turns the library's obs counters off for its lifetime, so the checks'
/// own calls (exact_error_rate, ...) are not counted as the program's work.
class CountersPaused {
 public:
  CountersPaused() { rdc::obs::set_counters_enabled(false); }
  ~CountersPaused() { rdc::obs::set_counters_enabled(was_enabled_); }
  CountersPaused(const CountersPaused&) = delete;
  CountersPaused& operator=(const CountersPaused&) = delete;

 private:
  bool was_enabled_ = rdc::obs::counters_enabled();
};

/// `value` with all 17 significant digits.
std::string exact(double value);

/// Checks a Design the full flow ran on: the mapped netlist, simulated
/// exhaustively, equals the spec on every care minterm, and the reported
/// error_rate equals exact_error_rate of the simulated netlist, bit for
/// bit. Returns "" when both hold, else what failed.
std::string check_mapped(const rdc::flow::Design& design);

/// The result metrics of a Design (no timings), parsed.
rdc::obs::JsonValue result_metrics(const rdc::flow::Design& design);

/// Every member of `expected` is present in `actual` with an equal value.
bool json_contains(const rdc::obs::JsonValue& actual,
                   const rdc::obs::JsonValue& expected);

/// Same members with equal values, in any order.
bool json_same_members(const rdc::obs::JsonValue& a,
                       const rdc::obs::JsonValue& b);

/// Quality summed over one result-metrics object per item, in item order
/// (a fixed order keeps the float sums identical from run to run). Items
/// without a result count as zero; they are failures already.
Quality quality_of(const std::vector<std::optional<rdc::obs::JsonValue>>& items);

/// Number member `key` of a parsed object, or nullopt.
std::optional<double> json_number(const rdc::obs::JsonValue& object,
                                  std::string_view key);

/// Folds a traced run's span self times into the per-layer metrics, per
/// round: span "espresso" becomes "espresso.ms", "pla.parse" becomes
/// "pla.parse_ms".
void add_layer_times(const Tracer& tracer, int rounds, Outcome& out);

// --- rounds -------------------------------------------------------------------

struct RoundTotals {
  double untraced_ms = 0.0;  ///< item time of the untraced rounds
  int untraced = 0;
  double traced_ms = 0.0;  ///< item time of the traced rounds
  int traced = 0;
};

/// Runs whole rounds of a single-caller workload. `round(tracer)` runs one
/// pass over the item set and returns its item time in ms; a null tracer
/// is the untraced form. Untraced rounds run until `seconds` of item time
/// and `rule.min_samples` items are reached. A traced run spends half the
/// time untraced and alternates each untraced round with a traced one
/// (library counters on), so the two halves give the tracing overhead
/// without an order bias.
template <typename Round>
RoundTotals drive_rounds(const Config& config, const SamplingRule& rule,
                         Outcome& out, Tracer& tracer, Round&& round) {
  RoundTotals t;
  const double budget_ms = (config.trace ? 0.5 : 1.0) * config.seconds * 1e3;
  rdc::obs::reset_counters();
  while (t.untraced == 0 || t.untraced_ms < budget_ms ||
         (!config.trace && out.latency_ms.size() < rule.min_samples)) {
    t.untraced_ms += round(nullptr);
    ++t.untraced;
    if (!config.trace) continue;
    rdc::obs::set_counters_enabled(true);
    t.traced_ms += round(&tracer);
    ++t.traced;
    rdc::obs::set_counters_enabled(false);
  }
  out.timed_s = t.untraced_ms / 1e3;
  if (config.trace) {
    out.layers["obs.tracing_overhead_pct"] =
        (t.traced_ms / t.untraced_ms - 1.0) * 100.0;
    add_layer_times(tracer, t.traced, out);
  }
  return t;
}

// --- workloads ----------------------------------------------------------------

Outcome run_flow_table1(const Config& config, const SamplingRule& rule);
Outcome run_reliability_sweep(const Config& config, const SamplingRule& rule);
Outcome run_serve_cold(const Config& config, const SamplingRule& rule);

}  // namespace perfbench
