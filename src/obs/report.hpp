// Structured run reports: the per-flow FlowReport filled by run_flow and
// the self-describing RunReport JSON documents emitted by the experiment
// harnesses' --json mode.
//
// Report content is split by determinism: per-circuit rows and the
// counters section contain only values that are byte-identical across
// RDC_THREADS settings (algorithmic metrics, work counters); wall-clock
// timings live in clearly separated fields (`wall_ms`, `phases`) that
// vary run to run. This is what makes regenerated BENCH_*.json artifacts
// diffable across machines and PRs.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/trace.hpp"

namespace rdc::obs {

class JsonWriter;

/// An insertion-ordered set of key → scalar fields (one JSON object).
class Record {
 public:
  void set(std::string key, std::string value);
  void set(std::string key, const char* value) {
    set(std::move(key), std::string(value));
  }
  void set(std::string key, double value);
  void set(std::string key, bool value);
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  void set(std::string key, T value) {
    if constexpr (std::is_signed_v<T>)
      set_int(std::move(key), static_cast<std::int64_t>(value));
    else
      set_uint(std::move(key), static_cast<std::uint64_t>(value));
  }

  /// Sets `key` to a pre-serialized JSON value written verbatim — the
  /// journal-replay path, where a resumed report row must reproduce the
  /// original run's bytes exactly (including number spellings a
  /// parse → re-emit cycle would not preserve).
  void set_raw(std::string key, std::string json_text);

  bool empty() const { return fields_.empty(); }
  /// Copies every field of `other` into this record (existing keys are
  /// overwritten in place, new keys append) — used to fold a FlowReport's
  /// metrics into a batch report row.
  void merge(const Record& other);
  /// Writes the fields as one JSON object.
  void write(JsonWriter& w) const;
  /// Writes the fields as members of the writer's currently open object —
  /// used to splice event fields after a standard header.
  void write_fields(JsonWriter& w) const;

 private:
  void set_int(std::string key, std::int64_t value);
  void set_uint(std::string key, std::uint64_t value);

  struct Field {
    enum class Kind { kString, kDouble, kInt, kUint, kBool, kRaw };
    std::string key;
    Kind kind = Kind::kString;
    std::string string;
    double number = 0.0;
    std::int64_t int_value = 0;
    std::uint64_t uint_value = 0;
    bool boolean = false;
  };
  Field& slot(std::string key);
  std::vector<Field> fields_;
};

/// What one run_flow call did: wall time per pipeline phase plus the
/// deterministic result metrics. `Pipeline::run` times every pass
/// unconditionally (a handful of steady_clock reads per flow) and merges
/// adjacent passes of one phase family into one row; its per-pass spans
/// follow the RDC_TRACE gate.
struct FlowReport {
  struct Phase {
    const char* name = nullptr;
    double wall_ms = 0.0;
    /// Hardware counters for the phase; valid only under RDC_PERF=1 on a
    /// host where perf_event_open works. Invalid counts serialize to
    /// nothing, keeping the report byte-identical to a perf-off run.
    PerfCounts perf;
  };
  std::vector<Phase> phases;
  Record metrics;

  double total_ms() const;
  /// Sum of the per-phase hardware counters (invalid phases skipped);
  /// invalid when no phase had counters.
  PerfCounts perf_total() const;
  const Phase* find_phase(std::string_view name) const;
  std::string to_json() const;
};

/// One self-describing benchmark report: metadata (suite, git revision,
/// date, thread count, compiler), per-circuit rows, and the merged
/// deterministic counters. Schema documented in DESIGN.md §9.
class RunReport {
 public:
  explicit RunReport(std::string suite);

  /// Extra top-level metadata (written alongside the built-ins).
  Record& meta() { return meta_; }

  /// Appends and returns a fresh per-circuit row.
  Record& add_row();
  std::size_t num_rows() const { return rows_.size(); }

  /// Serializes the document. Rows and counters are deterministic; the
  /// metadata block carries the run-varying context.
  std::string to_json() const;

  /// Writes to_json() to `path`; returns false (with a stderr note) on
  /// I/O failure.
  bool write_file(const std::string& path) const;

 private:
  std::string suite_;
  std::uint64_t start_ns_;
  Record meta_;
  std::vector<Record> rows_;
};

/// Git revision baked in at configure time (RDCSYN_GIT_REV), overridable
/// at runtime with the RDC_GIT_REV environment variable; "unknown" when
/// neither is available.
std::string git_revision();

/// Compiler identification string (e.g. "gcc 12.2.0").
std::string compiler_id();

/// Host CPU model from /proc/cpuinfo ("model name"), overridable with the
/// RDC_CPU_MODEL environment variable (CI pinning); "unknown" elsewhere.
std::string host_cpu_model();

/// Hardware core count (std::thread::hardware_concurrency; 0 if unknown).
unsigned host_core_count();

/// Current UTC time, ISO 8601 ("2026-08-06T12:34:56Z").
std::string iso8601_utc_now();

}  // namespace rdc::obs
