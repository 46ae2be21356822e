// The batch driver (DESIGN.md §11, §14): runs one pipeline over many
// circuits, one deterministic report row per circuit, with every circuit
// in its own forked, resource-capped worker — a worker SIGSEGV, OOM kill,
// or hang becomes an INTERNAL / RESOURCE_EXHAUSTED / DEADLINE_EXCEEDED
// row instead of batch death. rdc_batch and the benchmark harness run
// batches through this one engine; its only retry loop is
// exec::run_supervised's.
//
// Identity: every (circuit, pipeline, budget) job gets a stable 64-bit
// key hashed from the spec's serialized .pla bytes, its name, the
// canonical pipeline spec, and budget_fingerprint(). The key seeds
// both the journal (resume matching) and the RDC_FAULT p-draws (fault
// reproducibility), which is what makes an interrupted-and-resumed batch
// byte-identical to an uninterrupted one.
//
// Journal: with `journal_path` set, every job appends rdc.journal.v1
// state transitions (pending → running → done/failed, fsync'd); terminal
// records embed the finished report row so `resume` can restore it
// byte-for-byte without re-running the job. A job interrupted mid-run is
// left in state "running" and re-executes on resume — at-least-once,
// never lost, never duplicated into the report.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exec/budget.hpp"
#include "exec/supervisor.hpp"
#include "flow/pipeline.hpp"

namespace rdc::flow {

/// What every circuit of a batch shares besides the pipeline.
struct BatchOptions {
  /// Per-circuit budget limits; all-zero means unbudgeted. Each circuit
  /// gets its own ExecBudget so one runaway circuit cannot starve the rest.
  exec::BudgetLimits budget;
  std::string suite = "pipeline_batch";  ///< RunReport suite name
};

/// Deterministic fingerprint of the per-job budget limits, the one knob
/// besides the pipeline spec that can change a job's outcome. The
/// pipeline names everything else, the fault model included.
std::uint64_t budget_fingerprint(const exec::BudgetLimits& budget);

/// Stable job key: hash(spec .pla bytes, spec name, pipeline spec,
/// budget fingerprint, salt). `salt` disambiguates repeated identical
/// specs within one batch (occurrence index).
std::uint64_t batch_job_key(const IncompleteSpec& spec,
                            std::string_view pipeline_spec,
                            const BatchOptions& options,
                            std::uint64_t salt = 0);

struct SupervisedBatchOptions {
  BatchOptions batch;          ///< per-job budget / suite
  exec::RetryPolicy retry;     ///< transient-failure retry policy
  exec::WorkerLimits limits;   ///< hard per-attempt wall/RSS caps
  int max_parallel = 1;        ///< concurrently forked workers
  std::string journal_path;    ///< empty = no journal (no resume)
  /// Replay an existing journal first: terminal jobs contribute their
  /// recorded rows, everything else re-runs. A missing journal file is a
  /// fresh run, not an error.
  bool resume = false;
  /// Stop launching after this many completions (0 = all) — the
  /// deterministic mid-flight interruption used by the fault-resume smoke.
  std::size_t max_completions = 0;
};

struct SupervisedBatchResult {
  /// Aggregated rdc.bench.report.v1 document, rows in input order.
  /// Interrupted runs only contain rows for jobs that reached a terminal
  /// outcome (this run or a replayed journal).
  obs::RunReport report{std::string("pipeline_batch")};
  std::size_t failures = 0;   ///< rows with a non-OK status
  std::size_t resumed = 0;    ///< rows restored from the journal
  std::size_t executed = 0;   ///< jobs run to a terminal outcome here
  std::size_t skipped = 0;    ///< jobs left pending/running (interrupted)
  bool interrupted = false;   ///< max_completions hit or shutdown signal
};

/// Runs `pipeline_spec` over every spec under the process supervisor.
/// Only the batch-level setup can fail (unparsable pipeline spec,
/// unwritable journal); per-job failures of every kind are rows.
exec::Result<SupervisedBatchResult> run_pipeline_batch_supervised(
    const std::string& pipeline_spec,
    const std::vector<IncompleteSpec>& specs,
    const SupervisedBatchOptions& options);

}  // namespace rdc::flow
