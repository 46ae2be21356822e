#include "flow/batch_supervisor.hpp"

#include <optional>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/hash.hpp"
#include "exec/journal.hpp"
#include "obs/counters.hpp"
#include "obs/events.hpp"
#include "obs/json.hpp"
#include "pla/pla_io.hpp"

namespace rdc::flow {
namespace {

/// Rebuilds a row that serialize_row wrote (worker payload or journal
/// record) so that re-serializing it reproduces the original bytes:
/// numbers go back in their source spelling, strings are re-quoted by
/// JsonWriter. nullopt unless `text` is one JSON object of scalar values.
std::optional<obs::Record> parse_row(std::string_view text) {
  const std::optional<obs::JsonValue> doc = obs::parse_json(text);
  if (!doc || !doc->is_object()) return std::nullopt;
  obs::Record row;
  for (const auto& [key, value] : doc->object) {
    switch (value.kind) {
      case obs::JsonValue::Kind::kString: row.set(key, value.string); break;
      case obs::JsonValue::Kind::kNumber: row.set_raw(key, value.string); break;
      case obs::JsonValue::Kind::kBool: row.set(key, value.boolean); break;
      case obs::JsonValue::Kind::kNull: row.set_raw(key, "null"); break;
      default: return std::nullopt;
    }
  }
  return row;
}

std::string serialize_row(const obs::Record& row) {
  obs::JsonWriter w(/*compact=*/true);
  row.write(w);
  return w.str();
}

}  // namespace

std::uint64_t budget_fingerprint(const exec::BudgetLimits& budget) {
  // The FNV-1a state after the flow-option fields the fingerprint once
  // mixed first, at their defaults: starting from it keeps every cache key
  // and batch journal written before those fields left the key valid.
  constexpr std::uint64_t kSeed = 0xc29ec1926c602e71ull;
  std::uint64_t hash = fnv1a_double(budget.deadline_ms, kSeed);
  hash = fnv1a_u64(budget.max_checkpoints, hash);
  return fnv1a_u64(budget.max_rss_bytes, hash);
}

std::uint64_t batch_job_key(const IncompleteSpec& spec,
                            std::string_view pipeline_spec,
                            const BatchOptions& options, std::uint64_t salt) {
  std::ostringstream pla;
  write_pla(spec, pla);
  std::uint64_t hash = fnv1a(pla.str());
  hash = fnv1a(spec.name(), hash);
  hash = fnv1a(pipeline_spec, hash);
  hash = fnv1a_u64(budget_fingerprint(options.budget), hash);
  if (salt != 0) hash = fnv1a_u64(salt, hash);
  return hash;
}

exec::Result<SupervisedBatchResult> run_pipeline_batch_supervised(
    const std::string& pipeline_spec,
    const std::vector<IncompleteSpec>& specs,
    const SupervisedBatchOptions& options) {
  auto parsed = parse_pipeline(pipeline_spec);
  if (!parsed.ok()) return parsed.status();
  const Pipeline pipeline = std::move(parsed.value());
  const std::string canonical = pipeline.to_string();

  SupervisedBatchResult result;
  result.report = obs::RunReport(options.batch.suite);
  const bool events = obs::events_enabled();

  // Stable job identities; repeated identical specs get their occurrence
  // index mixed in so the journal can tell them apart.
  std::vector<std::uint64_t> keys(specs.size());
  std::vector<std::string> key_hex(specs.size());
  {
    std::unordered_map<std::uint64_t, std::uint64_t> seen;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      std::uint64_t key = batch_job_key(specs[i], canonical, options.batch);
      const std::uint64_t occurrence = seen[key]++;
      if (occurrence > 0)
        key = batch_job_key(specs[i], canonical, options.batch, occurrence);
      keys[i] = key;
      key_hex[i] = exec::job_key_hex(key);
    }
  }

  // Per-spec terminal state, filled from the journal replay or this run.
  struct Slot {
    bool done = false;
    bool ok = false;
    bool from_journal = false;
    std::string row_text;  ///< compact JSON row, exact bytes
  };
  std::vector<Slot> slots(specs.size());

  // --- resume: replay the journal before planning any work ---------------
  exec::JournalWriter journal;
  std::uint64_t next_seq = 1;
  bool replayed = false;
  if (!options.journal_path.empty() && options.resume) {
    auto replay = exec::replay_journal_file(options.journal_path);
    if (replay.ok()) {
      replayed = true;
      next_seq = replay.value().last_seq + 1;
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto it = replay.value().jobs.find(key_hex[i]);
        if (it == replay.value().jobs.end()) continue;
        const exec::JournalReplay::Job& job = it->second;
        if (!exec::journal_state_is_terminal(job.state) || job.row.empty())
          continue;  // pending/running (or pre-row journal): re-run
        slots[i].done = true;
        slots[i].from_journal = true;
        slots[i].ok = job.state == "done";
        slots[i].row_text = job.row;
        ++result.resumed;
      }
    }
    // A missing/unreadable journal on --resume is a fresh run by design:
    // the common case is "resume if interrupted, else just run".
  }
  if (!options.journal_path.empty()) {
    const exec::Status opened =
        journal.open(options.journal_path, /*truncate=*/!replayed);
    if (!opened.ok()) return opened;
    journal.set_next_seq(next_seq);
  }
  if (replayed) {
    obs::count(obs::Counter::kSupervisorResumes);
    if (events) {
      obs::Record fields;
      fields.set("journal", options.journal_path);
      fields.set("resumed", result.resumed);
      obs::emit_event("batch.resume", fields);
    }
  }

  // --- plan the remaining work -------------------------------------------
  const bool budgeted = options.batch.budget.deadline_ms > 0.0 ||
                        options.batch.budget.max_checkpoints > 0 ||
                        options.batch.budget.max_rss_bytes > 0;

  std::vector<std::size_t> spec_of_job;
  std::vector<exec::SupervisedJob> jobs;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (slots[i].done) continue;
    const IncompleteSpec& spec = specs[i];
    exec::SupervisedJob job;
    job.key = keys[i];
    job.name = spec.name();
    // Runs in the forked worker: the per-circuit body plus row
    // construction — the worker owns its row so a frame-returned failure
    // still carries the full circuit-annotated error text.
    job.run = [&pipeline, &spec, &options, budgeted](std::string& payload) {
      Design design(spec);
      exec::ExecBudget budget(options.batch.budget);
      std::optional<exec::BudgetScope> scope;
      if (budgeted) scope.emplace(&budget);
      exec::Status status;
      try {
        status = pipeline.run(design);
      } catch (...) {
        status = exec::status_from_current_exception();
      }
      obs::Record row;
      row.set("name", spec.name());
      row.set("status", exec::status_code_name(status.code()));
      row.merge(design.report.metrics);
      if (!status.ok()) {
        status.with_context("circuit " + spec.name());
        row.set("error", status.to_string());
      }
      payload = serialize_row(row);
      return status;
    };
    spec_of_job.push_back(i);
    jobs.push_back(std::move(job));
    if (journal.is_open()) {
      exec::JournalRecord record;
      record.job = key_hex[i];
      record.name = spec.name();
      record.state = "pending";
      journal.append(record);
    }
  }

  // --- execute under the supervisor --------------------------------------
  exec::SupervisorOptions sup;
  sup.limits = options.limits;
  sup.retry = options.retry;
  sup.max_parallel = options.max_parallel;
  sup.max_completions = options.max_completions;
  sup.on_attempt = [&](std::size_t job_index, int attempt) {
    if (!journal.is_open()) return;
    const std::size_t i = spec_of_job[job_index];
    exec::JournalRecord record;
    record.job = key_hex[i];
    record.name = specs[i].name();
    record.state = "running";
    record.attempt = attempt;
    journal.append(record);
  };

  const auto on_done = [&](const exec::JobOutcome& outcome) {
    const std::size_t i = spec_of_job[outcome.index];
    Slot& slot = slots[i];
    // Rebuild the worker's row and stamp the attempt count; a
    // crash/timeout (no payload) synthesizes the error row the worker
    // never got to write.
    std::optional<obs::Record> rebuilt = parse_row(outcome.payload);
    obs::Record row = rebuilt ? std::move(*rebuilt) : obs::Record();
    if (!rebuilt) {
      row.set("name", specs[i].name());
      row.set("status", exec::status_code_name(outcome.status.code()));
      exec::Status annotated = outcome.status;
      annotated.with_context("circuit " + specs[i].name());
      row.set("error", annotated.to_string());
    }
    row.set("attempts", outcome.attempts);
    slot.done = true;
    slot.ok = outcome.status.ok();
    slot.row_text = serialize_row(row);
    ++result.executed;
    if (journal.is_open()) {
      exec::JournalRecord record;
      record.job = key_hex[i];
      record.name = specs[i].name();
      record.state = slot.ok ? "done" : "failed";
      record.attempt = outcome.attempts;
      record.status = exec::status_code_name(outcome.status.code());
      if (!slot.ok) record.error = outcome.status.to_string();
      record.row = slot.row_text;
      journal.append(record);
    }
  };

  const exec::SupervisorResult run = exec::run_supervised(jobs, sup, on_done);
  result.skipped = run.skipped;
  result.interrupted = run.interrupted;

  // --- aggregate the report, input order ---------------------------------
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Slot& slot = slots[i];
    if (!slot.done) continue;  // interrupted before a terminal outcome
    obs::Record& row = result.report.add_row();
    if (std::optional<obs::Record> rebuilt = parse_row(slot.row_text)) {
      row = std::move(*rebuilt);
      if (!slot.ok) ++result.failures;
    } else {
      row.set("name", specs[i].name());
      row.set("status",
              exec::status_code_name(exec::StatusCode::kInternal));
      row.set("error", "journal row unparsable for job " + key_hex[i]);
      ++result.failures;
    }
  }
  result.report.meta().set("pipeline", canonical);
  result.report.meta().set("circuits", specs.size());
  result.report.meta().set("failures", result.failures);
  if (result.interrupted) result.report.meta().set("interrupted", true);
  return result;
}

}  // namespace rdc::flow
