// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--trace-file <path>]
//
// Runs one workload (flow_table1, reliability_sweep, serve_cold), checks
// every output it produced, prints a table of the metrics with their
// units, and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones from a traced run. See perfbench/README.md.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <span>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"peak_rss_mb", "MB"},
    {"ok_ratio", "ratio"},
    {"error_rate_mean", "ratio"},
    {"area_total", "um2"},
    {"power_total_uw", "uW"},
    {"delay_mean_ps", "ps"},
};

constexpr Metric kPerLayer[] = {
    {"reliability.assign_default_ms", "ms/round"},
    {"reliability.assign_model_ms", "ms/round"},
    {"reliability.error_rate_ms", "ms/round"},
    {"reliability.dc_assigned", "count/round"},
    {"reliability.error_rate_minterms", "count/round"},
    {"reliability.tracker_flips", "count/round"},
    {"reliability.tracker_syncs", "count/round"},
    {"reliability.tracker_incremental_ratio", "ratio"},
    {"espresso.ms", "ms/round"},
    {"espresso.iterations", "count/round"},
    {"espresso.cubes", "count/round"},
    {"espresso.literals", "count/round"},
    {"factor_aig.ms", "ms/round"},
    {"aig.ands", "count/round"},
    {"map.ms", "ms/round"},
    {"analyze.ms", "ms/round"},
    {"map.gates", "count/round"},
    {"pla.parse_ms", "ms/round"},
    {"pla.bytes", "bytes/round"},
    {"serve.submit_ms", "ms"},
    {"serve.execute_ms", "ms"},
    {"serve.overhead_ms", "ms"},
    {"serve.shed", "count"},
    {"serve.retries", "count"},
    {"serve.reply_bytes", "bytes/round"},
    {"exec.job_ms", "ms"},
    {"exec.job_overhead_ms", "ms"},
    {"exec.journal_records", "count/round"},
    {"exec.journal_bytes", "bytes/round"},
    {"exec.retries", "count/round"},
    {"exec.crashes", "count/round"},
    {"obs.report_json_ms", "ms/round"},
    {"obs.tracing_overhead_pct", "%"},
    {"setup.suite_ms", "ms"},
    {"setup.synthetic_ms", "ms"},
};

struct Workload {
  const char* name;
  /// Fixed per workload so the tail reads the same part of the latency
  /// mix in every run, with at least ten samples beyond it at the
  /// workload's minimum sample count (see README.md).
  double tail_quantile;
  Outcome (*run)(const Config&, const SamplingRule&);
};

constexpr Workload kWorkloads[] = {
    // The middle of the ninth of the twelve circuits in latency order, so
    // the estimate reads one circuit's samples however many rounds ran.
    {"flow_table1", 8.5 / 12, run_flow_table1},
    {"reliability_sweep", 0.95, run_reliability_sweep},
    {"serve_cold", 0.99, run_serve_cold},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--trace-file <path>]\n"
               "workloads: flow_table1 reliability_sweep serve_cold\n");
  return 2;
}

/// The library reads these at first use; the benchmark pins them so a
/// caller's environment cannot change what is measured.
void pin_environment() {
  for (const char* name : {"RDC_CHAOS", "RDC_COUNTERS", "RDC_EVENTS",
                           "RDC_FAULT", "RDC_METRICS", "RDC_PERF", "RDC_SIMD",
                           "RDC_TRACE"})
    unsetenv(name);
  setenv("RDC_THREADS", "1", 1);
  rdc::obs::set_counters_enabled(false);
}

/// Peak resident set of this process image, from VmHWM. (getrusage's
/// ru_maxrss survives execve, so it would report the launcher's peak when
/// that was larger.)
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.starts_with("VmHWM:"))
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      config.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (key == "--work-dir") {
      config.work_dir = value;
    } else if (key == "--trace-file") {
      config.trace_file = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !have_trace || !(config.seconds > 0.0)) return usage();
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (config.workload == w.name) workload = &w;
  if (workload == nullptr) return usage();
  if (config.work_dir.empty())
    config.work_dir = ".perfbench_out/work-" + config.workload + "-" +
                      std::to_string(getpid());
  if (config.trace_file.empty())
    config.trace_file = ".perfbench_out/trace-" + config.workload + "-seed" +
                        std::to_string(config.seed) + ".jsonl";
  std::filesystem::create_directories(config.trace_file.parent_path());
  pin_environment();

  const SamplingRule rule = sampling_rule(workload->tail_quantile);
  Outcome out;
  try {
    out = workload->run(config, rule);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", workload->name, e.what());
    return 1;
  }
  std::filesystem::remove_all(config.work_dir);
  if (out.attempted == 0) {
    std::fprintf(stderr, "perfbench: %s attempted no items\n", workload->name);
    return 1;
  }
  for (const std::string& problem : out.problems)
    std::fprintf(stderr, "perfbench: FAILED %s\n", problem.c_str());

  std::map<std::string, double> values;
  if (config.trace) {
    values = out.layers;
  } else {
    const std::size_t n = out.latency_ms.size();
    values["setup_s"] = median(out.setup_s);
    values["throughput_per_s"] =
        static_cast<double>(out.attempted) / out.timed_s;
    values["latency_p50_ms"] = median(out.latency_ms);
    values["latency_tail_ms"] = quantile(out.latency_ms, rule.tail_quantile);
    values["peak_rss_mb"] = peak_rss_mb();
    values["ok_ratio"] = static_cast<double>(out.attempted - out.failed) /
                         static_cast<double>(out.attempted);
    values["error_rate_mean"] = out.quality.error_rate_mean;
    values["area_total"] = out.quality.area_total;
    values["power_total_uw"] = out.quality.power_total_uw;
    values["delay_mean_ps"] = out.quality.delay_mean_ps;
    std::printf("%s seed %llu: %zu latency samples, tail at p%g with %zu "
                "beyond, %zu set-up repetitions\n",
                workload->name, static_cast<unsigned long long>(config.seed),
                n, rule.tail_quantile * 100, samples_beyond(n, rule.tail_quantile),
                out.setup_s.size());
  }
  const auto& table = config.trace ? std::span<const Metric>(kPerLayer)
                                   : std::span<const Metric>(kEndToEnd);
  std::string json = "{\"correct\": ";
  json += out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < table.size(); ++i) {
    const double value = values.count(table[i].name) ? values[table[i].name] : 0.0;
    std::printf("  %-40s %16.6g %s\n", table[i].name, value, table[i].unit);
    if (i > 0) json += ", ";
    json += std::string("\"") + table[i].name + "\": {\"value\": " +
            exact(value) + ", \"unit\": \"" + table[i].unit + "\"}";
  }
  json += "}}";
  if (config.trace) {
    // Where the traced time went, by span self time, for the claims in
    // README.md about which layers each workload stresses.
    double total = 0.0;
    for (const auto& [name, ms] : out.span_ms) total += ms;
    std::printf("span self time per round (spans in %s):\n",
                config.trace_file.c_str());
    for (const auto& [name, ms] : out.span_ms)
      std::printf("  %-40s %12.3f ms %6.1f%%\n", name.c_str(), ms,
                  100.0 * ms / total);
  }
  std::printf("%s\n", json.c_str());
  return 0;
}
