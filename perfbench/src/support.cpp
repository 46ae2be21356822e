// Shared helpers of perfbench: statistics, the span recorder,
// the traced form of a pipeline, per-layer counts and the output checks.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "aig/simulate.hpp"
#include "bench.hpp"
#include "mapper/unmap.hpp"
#include "reliability/error_rate.hpp"

namespace perfbench {

using namespace rdc;

void Outcome::item(const std::string& problem) {
  ++attempted;
  if (problem.empty()) return;
  ++failed;
  if (problems.size() < 16) problems.push_back(problem);
}

SamplingRule sampling_rule(double tail_quantile) {
  std::size_t n = 2;
  while (samples_beyond(n, tail_quantile) < 10) ++n;
  return {tail_quantile, n};
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ms_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

namespace {

/// Regularized incomplete beta function I_x(a, b), by Lentz's continued
/// fraction on whichever side of the mean converges fast.
double incomplete_beta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  if (x > (a + 1.0) / (a + b + 2.0)) return 1.0 - incomplete_beta(b, a, 1.0 - x);
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) -
                                std::lgamma(b) + a * std::log(x) +
                                b * std::log1p(-x)) /
                       a;
  constexpr double kTiny = 1e-300;
  double f = 1.0, c = 1.0, d = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double m = i / 2;
    double term = 1.0;
    if (i > 0 && i % 2 == 0)
      term = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m));
    else if (i > 0)
      term = -((a + m) * (a + b + m) * x) / ((a + 2 * m) * (a + 2 * m + 1));
    d = 1.0 + term * d;
    d = 1.0 / (std::abs(d) < kTiny ? kTiny : d);
    c = 1.0 + term / c;
    if (std::abs(c) < kTiny) c = kTiny;
    f *= c * d;
    if (std::abs(1.0 - c * d) < 1e-14) break;
  }
  return front * (f - 1.0);
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double a = q * (n + 1.0);
  const double b = (1.0 - q) * (n + 1.0);
  double estimate = 0.0;
  double below = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double upto = incomplete_beta(a, b, static_cast<double>(i + 1) / n);
    estimate += (upto - below) * values[i];
    below = upto;
  }
  return estimate;
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto upper = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n - 1)));
  return n - 1 - std::min(upper, n - 1);
}

// --- tracing ----------------------------------------------------------------

std::uint32_t Tracer::open(std::string name, std::uint64_t item,
                           std::uint32_t parent) {
  spans_.push_back({std::move(name), parent, item, now_ns(), 0});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Tracer::close(std::uint32_t id) { spans_.at(id).end_ns = now_ns(); }

std::uint32_t Tracer::add(std::string name, std::uint64_t item,
                          std::uint32_t parent, std::uint64_t start_ns,
                          std::uint64_t end_ns) {
  spans_.push_back({std::move(name), parent, item, start_ns, end_ns});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

std::map<std::string, double> Tracer::self_ms() const {
  // Children of one span never overlap (every traced caller is one
  // thread), so the covered part is the sum of the children's durations.
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.name] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
  }
  return self;
}

bool Tracer::write(const std::filesystem::path& path) const {
  std::ofstream out(path);
  const std::uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    obs::JsonWriter w(true);
    w.begin_object();
    w.key("id").value(static_cast<std::uint64_t>(i));
    if (s.parent != kNoParent)
      w.key("parent").value(static_cast<std::uint64_t>(s.parent));
    w.key("item").value(s.item);
    w.key("name").value(s.name);
    w.key("start_us").value(static_cast<double>(s.start_ns - base) / 1e3);
    w.key("dur_us").value(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    w.end_object();
    out << w.str() << '\n';
  }
  return static_cast<bool>(out);
}

// --- pipelines --------------------------------------------------------------

flow::Pipeline must_parse(const std::string& spec) {
  exec::Result<flow::Pipeline> parsed = flow::parse_pipeline(spec);
  if (!parsed.ok())
    throw std::logic_error("pipeline '" + spec +
                           "': " + parsed.status().to_string());
  return std::move(*parsed);
}

std::vector<flow::Pipeline> split_passes(const flow::Pipeline& p) {
  std::vector<flow::Pipeline> passes;
  for (std::size_t i = 0; i < p.size(); ++i)
    passes.push_back(must_parse(p.at(i).spec()));
  return passes;
}

std::string layer_of(const flow::Pass& pass) {
  const std::string name = pass.name();
  if (name.starts_with("assign:"))
    return pass.fault_model() ? "reliability.assign_model"
                              : "reliability.assign_default";
  if (name.starts_with("error_rate")) return "reliability.error_rate";
  if (name == "factor" || name == "aig") return "factor_aig";
  if (name.starts_with("map:")) return "map";
  if (name == "covers:minterm") return "covers_minterm";
  return name;  // espresso, analyze
}

exec::Status run_traced(const std::vector<flow::Pipeline>& passes,
                        flow::Design& design, Tracer& tracer,
                        std::uint64_t item, std::uint32_t parent) {
  for (const flow::Pipeline& pass : passes) {
    SpanScope span(&tracer, layer_of(pass.at(0)), item, parent);
    exec::Status status = pass.run(design);
    if (!status.ok()) return status;
  }
  return {};
}

void add_layer_times(const Tracer& tracer, int rounds, Outcome& out) {
  for (const auto& [name, ms] : tracer.self_ms()) {
    const bool dotted = name.find('.') != std::string::npos;
    out.layers[name + (dotted ? "_ms" : ".ms")] += ms / rounds;
    out.span_ms[name] += ms / rounds;
  }
}

void LayerCounts::add_flow(const flow::Design& design) {
  for (const Cover& cover : design.covers()) {
    cubes += static_cast<double>(cover.size());
    literals += static_cast<double>(cover.literal_count());
  }
  aig_ands += static_cast<double>(design.aig().num_ands());
  gates += static_cast<double>(design.stats.gates);
  dc_assigned += static_cast<double>(design.assignment.assigned);
  default_evaluations += design.spec().num_outputs();
}

void LayerCounts::report(int rounds, Outcome& out) const {
  const auto per_round = [rounds](obs::Counter c) {
    return static_cast<double>(obs::counter_total(c)) / rounds;
  };
  out.layers["espresso.cubes"] = cubes / rounds;
  out.layers["espresso.literals"] = literals / rounds;
  out.layers["aig.ands"] = aig_ands / rounds;
  out.layers["map.gates"] = gates / rounds;
  out.layers["reliability.dc_assigned"] = dc_assigned / rounds;
  out.layers["espresso.iterations"] =
      per_round(obs::Counter::kEspressoIterations);
  out.layers["reliability.error_rate_minterms"] =
      per_round(obs::Counter::kErrorRateMinterms);
  out.layers["reliability.tracker_flips"] =
      per_round(obs::Counter::kErrorTrackerFlips);
  const double syncs = static_cast<double>(
      obs::counter_total(obs::Counter::kErrorTrackerSyncs));
  out.layers["reliability.tracker_syncs"] = syncs / rounds;
  // Share of default-path evaluations the tracker served incrementally
  // instead of with a full resync.
  if (default_evaluations > 0)
    out.layers["reliability.tracker_incremental_ratio"] =
        1.0 - syncs / static_cast<double>(default_evaluations);
}

// --- output checks ----------------------------------------------------------

std::string exact(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string check_mapped(const flow::Design& design) {
  const IncompleteSpec& spec = design.spec();
  const Aig aig = netlist_to_aig(design.netlist());
  if (aig.num_inputs() != spec.num_inputs() ||
      aig.outputs().size() != spec.num_outputs())
    return spec.name() + ": netlist shape differs from the spec";
  const AigSimulator sim(aig);
  IncompleteSpec simulated(spec.name(), spec.num_inputs(), spec.num_outputs());
  std::uint64_t care_mismatches = 0;
  for (unsigned o = 0; o < spec.num_outputs(); ++o) {
    simulated.output(o) = sim.output_table(o);
    BitVec diff = simulated.output(o).on_bits();
    diff ^= spec.output(o).on_bits();
    diff.and_not(spec.output(o).dc_bits());
    care_mismatches += diff.count();
  }
  if (care_mismatches != 0)
    return spec.name() + ": netlist differs from the spec on " +
           std::to_string(care_mismatches) + " care minterms";
  const double rate = exact_error_rate(simulated, spec);
  if (rate != design.error_rate)
    return spec.name() + ": reported error_rate " +
           exact(design.error_rate) + " != exact rate of the netlist " +
           exact(rate);
  return {};
}

obs::JsonValue result_metrics(const flow::Design& design) {
  obs::JsonWriter w(true);
  design.report.metrics.write(w);
  return obs::parse_json(w.str()).value();
}

namespace {

/// Structural equality of parsed JSON values (numbers compared exactly).
bool json_equal(const obs::JsonValue& a, const obs::JsonValue& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case obs::JsonValue::Kind::kNull: return true;
    case obs::JsonValue::Kind::kBool: return a.boolean == b.boolean;
    case obs::JsonValue::Kind::kNumber: return a.number == b.number;
    case obs::JsonValue::Kind::kString: return a.string == b.string;
    case obs::JsonValue::Kind::kArray:
      return std::equal(a.array.begin(), a.array.end(), b.array.begin(),
                        b.array.end(), json_equal);
    case obs::JsonValue::Kind::kObject:
      return std::equal(a.object.begin(), a.object.end(), b.object.begin(),
                        b.object.end(), [](const auto& x, const auto& y) {
                          return x.first == y.first &&
                                 json_equal(x.second, y.second);
                        });
  }
  return false;
}

}  // namespace

bool json_contains(const obs::JsonValue& actual,
                   const obs::JsonValue& expected) {
  if (!actual.is_object() || !expected.is_object()) return false;
  for (const auto& [key, value] : expected.object) {
    const obs::JsonValue* found = actual.find(key);
    if (found == nullptr || !json_equal(*found, value)) return false;
  }
  return true;
}

bool json_same_members(const obs::JsonValue& a, const obs::JsonValue& b) {
  return json_contains(a, b) && json_contains(b, a);
}

Quality quality_of(const std::vector<std::optional<obs::JsonValue>>& items) {
  Quality q;
  const double n = static_cast<double>(items.size());
  for (const std::optional<obs::JsonValue>& metrics : items) {
    if (!metrics) continue;
    q.error_rate_mean += json_number(*metrics, "error_rate").value_or(0) / n;
    q.area_total += json_number(*metrics, "area").value_or(0);
    q.power_total_uw += json_number(*metrics, "power_uw").value_or(0);
    q.delay_mean_ps += json_number(*metrics, "delay_ps").value_or(0) / n;
  }
  return q;
}

std::optional<double> json_number(const obs::JsonValue& object,
                                  std::string_view key) {
  const obs::JsonValue* value = object.find(key);
  if (value == nullptr || !value->is_number()) return std::nullopt;
  return value->number;
}

}  // namespace perfbench
