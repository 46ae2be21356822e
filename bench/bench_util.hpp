// Shared helpers for the experiment harnesses: suite access with in-process
// caching, per-circuit fan-out over the process-wide thread pool,
// fixed-width table printing, normalization utilities, the common
// `--json <path>` machine-readable report mode (schema in DESIGN.md §9),
// and the fault-isolation wrappers of §10 (`run_guarded`, `guarded_rows`)
// that turn one bad circuit into one error row instead of a dead harness.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "benchdata/suite.hpp"
#include "common/format.hpp"
#include "common/thread_pool.hpp"
#include "exec/budget.hpp"
#include "exec/status.hpp"
#include "flow/synthesis_flow.hpp"
#include "obs/counters.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace rdc::bench {

/// The Table-1 suite, generated once per process.
inline const std::vector<IncompleteSpec>& suite() {
  static const std::vector<IncompleteSpec> instance = table1_suite();
  return instance;
}

/// The paper's conventional synthesis flow after DC assignment, mapped for
/// power: run_flow(spec, "assign:lcf(0.55)" + bench::kLowerHalf) is the
/// LC^f experiment.
inline const std::string kLowerHalf =
    " | espresso | factor | aig | map:power | analyze | error_rate";

inline void heading(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void note(const std::string& text) { std::printf("%s\n", text.c_str()); }

/// Computes fn(0..count-1) on the shared pool (RDC_THREADS workers) and
/// returns the results in index order — the harnesses' per-circuit fan-out.
/// Results print sequentially afterwards, so table rows stay deterministic
/// regardless of the thread count.
template <typename Row, typename Fn>
std::vector<Row> parallel_rows(std::size_t count, Fn fn) {
  std::vector<Row> rows(count);
  ThreadPool::global().parallel_for(0, count, [&](std::uint64_t i) {
    rows[i] = fn(static_cast<std::size_t>(i));
  });
  return rows;
}

/// Percent improvement of `value` relative to `baseline` (positive = better
/// = smaller), matching the sign convention of the paper's Table 2.
inline double improvement_percent(double baseline, double value) {
  if (baseline == 0.0) return 0.0;
  return (baseline - value) / baseline * 100.0;
}

/// value / baseline, guarding the degenerate baseline.
inline double normalized(double baseline, double value) {
  return baseline == 0.0 ? 1.0 : value / baseline;
}

/// Command-line options shared by every table/figure harness.
struct Options {
  std::string json_path;      ///< empty: print the table only
  double deadline_ms = 0.0;   ///< per-circuit wall-clock budget; 0 = none
  std::string circuits_path;  ///< external circuit list (bench_table1)
};

/// Runs one unit of harness work behind the full §10 boundary: a fresh
/// per-circuit deadline budget (when --deadline-ms was given) plus the
/// exception→Status conversion. Exceptions never escape, so one circuit's
/// parse error, deadline or injected fault cannot take down the run — and,
/// with the stop-on-throw thread pool, cannot cancel its sibling rows.
template <typename Fn>
exec::Status run_guarded(const Options& options, Fn&& fn) {
  try {
    if (options.deadline_ms > 0.0) {
      exec::ExecBudget budget =
          exec::ExecBudget::with_deadline_ms(options.deadline_ms);
      exec::BudgetScope scope(&budget);
      fn();
    } else {
      fn();
    }
    return exec::Status();
  } catch (...) {
    return exec::status_from_current_exception();
  }
}

/// parallel_rows plus per-row fault isolation: rows[i] keeps its
/// default-constructed value when statuses[i] is a failure.
template <typename Row>
struct GuardedRows {
  std::vector<Row> rows;
  std::vector<exec::Status> statuses;

  bool ok(std::size_t i) const { return statuses[i].ok(); }
  std::size_t failures() const {
    std::size_t n = 0;
    for (const exec::Status& s : statuses)
      if (!s.ok()) ++n;
    return n;
  }
};

template <typename Row, typename Fn>
GuardedRows<Row> guarded_rows(const Options& options, std::size_t count,
                              Fn fn) {
  GuardedRows<Row> out;
  out.rows.resize(count);
  out.statuses.resize(count);
  ThreadPool::global().parallel_for(0, count, [&](std::uint64_t i) {
    out.statuses[i] = run_guarded(options, [&] {
      out.rows[i] = fn(static_cast<std::size_t>(i));
    });
  });
  return out;
}

/// Appends the rdc.bench.report.v1 error row for a failed circuit: the
/// `status` field carries the stable UPPER_SNAKE code, `error` the full
/// message with context chain.
inline void add_error_row(obs::RunReport& report, const std::string& name,
                          const exec::Status& status) {
  obs::Record& row = report.add_row();
  row.set("name", name);
  row.set("status", exec::status_code_name(status.code()));
  row.set("error", status.to_string());
}

/// Console twin of add_error_row, keeping failed circuits visible in the
/// printed table.
inline void print_error_row(const std::string& name,
                            const exec::Status& status) {
  std::printf("%-12s ERROR %s\n", name.c_str(), status.to_string().c_str());
}

/// Parses the common harness arguments (`--json <path>` / `--json=<path>`,
/// `--help`). Returns false after printing a usage note on `--help` or an
/// unknown argument; the caller should then exit (0 for help, 2 otherwise,
/// as reported in `exit_code`). Counter collection is switched on as soon
/// as a JSON report is requested so the report's counters block is
/// populated even without RDC_TRACE.
inline bool parse_args(int argc, char** argv, Options& options,
                       int& exit_code) {
  // Resolve RDC_TRACE up front: the lazy init runs on the first span, and a
  // harness whose work stays on the inline parallel_for path may execute
  // none — the atexit trace flush must still be installed. Same story for
  // the RDC_METRICS snapshotter and the RDC_EVENTS sink.
  obs::trace_mode();
  obs::metrics_init_from_env();
  obs::events_enabled();
  exit_code = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      std::printf(
          "usage: %s [--json <path>] [--deadline-ms <ms>] "
          "[--circuits <list>]\n"
          "  --json <path>      also write a machine-readable run report\n"
          "                     (schema rdc.bench.report.v1, see DESIGN.md)\n"
          "  --deadline-ms <ms> per-circuit wall-clock budget; circuits\n"
          "                     that exceed it become DEADLINE_EXCEEDED\n"
          "                     error rows and the run continues\n"
          "  --circuits <list>  file with one .pla/.blif path per line\n"
          "                     (bench_table1 only; replaces the suite)\n"
          "Environment: RDC_THREADS, RDC_TRACE, RDC_COUNTERS,\n"
          "RDC_FAULT=site:N[,...] (throw from the Nth hit of a fault site),\n"
          "RDC_METRICS=<path>[:interval_ms] (live metric snapshots),\n"
          "RDC_EVENTS=<path> (rdc.events.v1 lifecycle log),\n"
          "RDC_PERF=1 (hardware counters on spans/passes) — see DESIGN.md.\n",
          argv[0]);
      return false;
    }
    if (std::strcmp(arg, "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --json requires a path argument\n", argv[0]);
        exit_code = 2;
        return false;
      }
      options.json_path = argv[++i];
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      options.json_path = arg + 7;
    } else if (std::strcmp(arg, "--deadline-ms") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --deadline-ms requires a value\n", argv[0]);
        exit_code = 2;
        return false;
      }
      options.deadline_ms = std::strtod(argv[++i], nullptr);
    } else if (std::strncmp(arg, "--deadline-ms=", 14) == 0) {
      options.deadline_ms = std::strtod(arg + 14, nullptr);
    } else if (std::strcmp(arg, "--circuits") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --circuits requires a path\n", argv[0]);
        exit_code = 2;
        return false;
      }
      options.circuits_path = argv[++i];
    } else if (std::strncmp(arg, "--circuits=", 11) == 0) {
      options.circuits_path = arg + 11;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s' (try --help)\n", argv[0],
                   arg);
      exit_code = 2;
      return false;
    }
  }
  if (!options.json_path.empty()) obs::set_counters_enabled(true);
  return true;
}

/// Writes the report when --json was requested; returns the process exit
/// code for main().
inline int finish(const Options& options, const obs::RunReport& report) {
  if (options.json_path.empty()) return 0;
  if (!report.write_file(options.json_path)) return 1;
  std::printf("\n[report: %s]\n", options.json_path.c_str());
  return 0;
}

}  // namespace rdc::bench
