// rdc_batch — crash-safe batch driver (DESIGN.md §14).
//
// Runs a pipeline over a set of .pla circuits with each job in a forked,
// resource-capped worker: a circuit that segfaults, OOMs, or hangs
// becomes an INTERNAL / RESOURCE_EXHAUSTED / DEADLINE_EXCEEDED report
// row while the rest of the batch completes. Transient failures retry
// with exponential backoff (--retries); with --journal every state
// transition is fsync'd so an interrupted batch resumes exactly
// (--resume) — no job lost, none run twice.
//
//   rdc_batch <a.pla> <b.pla> ... --pipeline "<spec>" [--json report.json]
//             [--journal batch.journal] [--resume] [--retries N]
//             [--backoff-ms MS] [--deadline-ms MS] [--budget-ms MS]
//             [--rss-mb MB] [--jobs N] [--stop-after N]
//
// Fault injection: RDC_FAULT=job:kill:0.3 (see exec/fault.hpp) injects
// deterministic worker failures keyed by job identity — the CI smoke
// interrupts such a batch mid-flight and asserts the resumed report
// matches an uninterrupted run. Hit counts restart in every worker, so
// `site:N` counts within one job attempt.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "exec/shutdown.hpp"
#include "flow/batch_supervisor.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "pla/pla_io.hpp"

namespace {

using namespace rdc;

int usage() {
  std::printf(
      "usage: rdc_batch <a.pla> <b.pla> ... --pipeline \"<spec>\" [options]\n"
      "\n"
      "Runs the pipeline over every circuit with per-job process\n"
      "isolation: crashes, OOMs and hangs become per-row errors, never\n"
      "batch death.\n"
      "\n"
      "options:\n"
      "  --pipeline \"<spec>\"  pass sequence, e.g. \"assign:ranking(0.5) |\n"
      "                       espresso | factor | aig | map:power\"\n"
      "  --json <path>        write the aggregated report JSON here\n"
      "                       (default: print to stdout)\n"
      "  --journal <path>     append rdc.journal.v1 state transitions\n"
      "                       (fsync'd) for crash-safe resume\n"
      "  --resume             replay the journal first: finished jobs\n"
      "                       contribute their recorded rows, the rest run\n"
      "  --retries <n>        max attempts per job for transient failures\n"
      "                       (crash/timeout/fault); default 1 = no retry\n"
      "  --backoff-ms <ms>    base retry backoff (exponential, jittered);\n"
      "                       default 100\n"
      "  --deadline-ms <ms>   hard wall limit per worker attempt (SIGKILL\n"
      "                       + DEADLINE_EXCEEDED row); default off\n"
      "  --budget-ms <ms>     cooperative in-process deadline per job\n"
      "                       (graceful degradation); default off\n"
      "  --rss-mb <mb>        RLIMIT_AS per worker (allocation failures\n"
      "                       become RESOURCE_EXHAUSTED rows); default off\n"
      "  --jobs <n>           concurrently forked workers; default 1\n"
      "  --stop-after <n>     stop launching after n completions (testing\n"
      "                       hook: deterministic interruption)\n"
      "\n"
      "environment: RDC_FAULT=site:[action:]trigger[@attempt],... injects\n"
      "deterministic faults, e.g. job:kill:0.3 or job:segv:1@1 (actions\n"
      "throw, kill, segv, oom, hang; hit counts restart in every job\n"
      "attempt); RDC_EVENTS / RDC_METRICS / RDC_TRACE as everywhere else.\n"
      "\n"
      "exit codes:\n"
      "  0  every row OK\n"
      "  1  hard error (I/O, unexpected exception)\n"
      "  2  usage / invalid arguments\n"
      "  3  batch completed but some rows failed (report still written)\n"
      "  4  interrupted (signal or --stop-after); journal resumable\n");
  return 2;
}

struct Args {
  std::vector<std::string> inputs;
  std::string pipeline;
  std::string json;
  std::string journal;
  bool resume = false;
  int retries = 1;
  double backoff_ms = 100.0;
  double deadline_ms = 0.0;
  double budget_ms = 0.0;
  double rss_mb = 0.0;
  int jobs = 1;
  long stop_after = 0;
};

/// Whole-string integer that fits `Int`: "2x", "" and overflow fail.
template <typename Int>
bool parse_number(const char* text, Int& out) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE ||
      value < std::numeric_limits<Int>::min() ||
      value > std::numeric_limits<Int>::max())
    return false;
  out = static_cast<Int>(value);
  return true;
}

/// Whole-string finite number: "2x", "inf" and "nan" fail.
bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value)) return false;
  out = value;
  return true;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const auto number = [&](auto& slot) {
      const char* v = next();
      if (v != nullptr && parse_number(v, slot)) return true;
      std::fprintf(stderr, "rdc_batch: invalid %s value '%s'\n",
                   a.c_str(), v == nullptr ? "" : v);
      return false;
    };
    if (a == "--pipeline") {
      const char* v = next();
      if (v == nullptr) return false;
      args.pipeline = v;
    } else if (a == "--json") {
      const char* v = next();
      if (v == nullptr) return false;
      args.json = v;
    } else if (a == "--journal") {
      const char* v = next();
      if (v == nullptr) return false;
      args.journal = v;
    } else if (a == "--resume") {
      args.resume = true;
    } else if (a == "--retries") {
      if (!number(args.retries)) return false;
    } else if (a == "--backoff-ms") {
      if (!number(args.backoff_ms)) return false;
    } else if (a == "--deadline-ms") {
      if (!number(args.deadline_ms)) return false;
    } else if (a == "--budget-ms") {
      if (!number(args.budget_ms)) return false;
    } else if (a == "--rss-mb") {
      if (!number(args.rss_mb)) return false;
    } else if (a == "--jobs") {
      if (!number(args.jobs)) return false;
    } else if (a == "--stop-after") {
      if (!number(args.stop_after)) return false;
    } else if (!a.empty() && a[0] != '-') {
      args.inputs.push_back(a);
    } else {
      std::fprintf(stderr, "rdc_batch: unknown argument %s\n", a.c_str());
      return false;
    }
  }
  if (args.inputs.empty() || args.pipeline.empty()) return false;
  if (args.retries < 1 || args.jobs < 1 || args.stop_after < 0 ||
      args.backoff_ms < 0.0 || args.deadline_ms < 0.0 ||
      args.budget_ms < 0.0 || args.rss_mb < 0.0) {
    std::fprintf(stderr, "rdc_batch: negative/zero option value\n");
    return false;
  }
  // The limits become uint64 byte and nanosecond counts downstream.
  if (args.rss_mb * 1024.0 * 1024.0 >= 0x1p64 ||
      args.deadline_ms * 1e6 >= 0x1p64 || args.budget_ms * 1e6 >= 0x1p64) {
    std::fprintf(stderr, "rdc_batch: option value out of range\n");
    return false;
  }
  return true;
}

int run(const Args& args) {
  std::vector<IncompleteSpec> specs;
  specs.reserve(args.inputs.size());
  for (const std::string& path : args.inputs) {
    try {
      specs.push_back(load_pla(path));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "rdc_batch: %s: %s\n", path.c_str(), e.what());
      return 1;
    }
  }

  flow::SupervisedBatchOptions options;
  options.batch.suite = "rdc_batch";
  if (args.budget_ms > 0.0) options.batch.budget.deadline_ms = args.budget_ms;
  options.retry.max_attempts = args.retries;
  options.retry.base_backoff_ms = args.backoff_ms;
  options.limits.wall_ms = args.deadline_ms;
  options.limits.max_rss_bytes =
      static_cast<std::uint64_t>(args.rss_mb * 1024.0 * 1024.0);
  options.max_parallel = args.jobs;
  options.journal_path = args.journal;
  options.resume = args.resume;
  options.max_completions = static_cast<std::size_t>(args.stop_after);

  auto result = flow::run_pipeline_batch_supervised(args.pipeline, specs,
                                                    options);
  if (!result.ok()) {
    std::fprintf(stderr, "rdc_batch: %s\n",
                 result.status().to_string().c_str());
    return result.status().code() == exec::StatusCode::kInvalidArgument ? 2
                                                                        : 1;
  }

  const std::string report = result->report.to_json();
  if (!args.json.empty()) {
    std::ofstream out(args.json);
    if (!out) {
      std::fprintf(stderr, "rdc_batch: cannot write %s\n", args.json.c_str());
      return 1;
    }
    out << report << '\n';
  } else {
    std::printf("%s\n", report.c_str());
  }
  std::fprintf(stderr,
               "rdc_batch: %zu circuits, %zu executed, %zu resumed, "
               "%zu failed, %zu skipped%s\n",
               specs.size(), result->executed, result->resumed,
               result->failures, result->skipped,
               result->interrupted ? " (interrupted)" : "");

  if (result->interrupted || exec::shutdown_requested()) {
    if (exec::shutdown_requested() && obs::events_enabled()) {
      obs::Record fields;
      fields.set("signal", exec::shutdown_signal());
      obs::emit_event("process.shutdown", fields);
    }
    obs::flush_events();
    return 4;
  }
  return result->failures == 0 ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  // The driver owns shutdown: the batch event loop polls the flag, kills
  // in-flight workers, journals nothing terminal for them, and exits 4 —
  // the snapshotter must flush telemetry but not re-raise.
  exec::install_shutdown_handlers();
  exec::claim_shutdown_ownership();
  obs::metrics_init_from_env();
  int code = 1;
  try {
    code = run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rdc_batch: %s\n", e.what());
    code = 1;
  }
  obs::stop_metrics_snapshotter();
  return code;
}
