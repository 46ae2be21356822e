// Tests for the crash-safe batch layer (DESIGN.md §14): pinned `job`-site
// fault draws and the per-attempt scope of hit counts, the
// rdc.journal.v1 writer/replayer (durability, tolerant replay, the
// duplicate-terminal audit), the process-isolation supervisor (payload
// round trips, crash/hang/OOM classification, retry-with-backoff,
// deterministic interruption), and the supervised batch driver's
// journaled resume reproducing an uninterrupted run's report.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "exec/fault.hpp"
#include "exec/journal.hpp"
#include "exec/shutdown.hpp"
#include "exec/supervisor.hpp"
#include "fault_guard.hpp"
#include "flow/batch_supervisor.hpp"
#include "flow/pipeline.hpp"
#include "obs/counters.hpp"
#include "obs/events.hpp"
#include "obs/json.hpp"
#include "pla/pla_io.hpp"
#include "report_json.hpp"

namespace rdc {
namespace {

using exec::StatusCode;

constexpr const char* kBuiltinPla = R"(.i 4
.o 2
.type fd
.p 8
0000 1-
0011 11
01-- -1
1000 --
1011 1-
110- -0
1111 1-
1010 -1
.e
)";

IncompleteSpec builtin_spec() {
  return parse_pla_string(kBuiltinPla, "builtin");
}

IncompleteSpec random_spec(unsigned n, unsigned outputs, double dc_prob,
                           Rng& rng, const std::string& name = "random") {
  IncompleteSpec spec(name, n, outputs);
  for (auto& f : spec.outputs())
    for (std::uint32_t m = 0; m < f.size(); ++m) {
      if (rng.flip(dc_prob))
        f.set_phase(m, Phase::kDc);
      else
        f.set_phase(m, rng.flip(0.5) ? Phase::kOne : Phase::kZero);
    }
  return spec;
}

/// Captures events + counters for one test and restores the globals.
struct ObsCapture {
  ObsCapture() {
    exec::testing::reset_shutdown();
    obs::set_events_capture(true);
    obs::drain_events();
    obs::set_counters_enabled(true);
    obs::reset_counters();
  }
  ~ObsCapture() {
    obs::set_events_capture(false);
    obs::set_counters_enabled(false);
  }
  /// Lines whose "event" field equals `name`.
  static std::size_t count_events(const std::vector<std::string>& lines,
                                  const std::string& name) {
    const std::string needle = "\"event\": \"" + name + "\"";
    std::size_t hits = 0;
    for (const std::string& line : lines)
      if (line.find(needle) != std::string::npos) ++hits;
    return hits;
  }
};

std::string temp_path(const char* stem) {
  return ::testing::TempDir() + stem;
}

/// Every row of the batch report is OK and took two attempts.
void expect_ok_rows_after_two_attempts(const std::string& report,
                                       std::size_t row_count) {
  std::string error;
  const auto parsed = obs::parse_json(report, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const obs::JsonValue* rows = parsed->find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array.size(), row_count);
  for (const obs::JsonValue& row : rows->array) {
    EXPECT_EQ(row.find("status")->string, "OK");
    ASSERT_NE(row.find("attempts"), nullptr);
    EXPECT_EQ(row.find("attempts")->number, 2.0);
  }
}

exec::SupervisedJob ok_job(std::uint64_t key, const std::string& name,
                           const std::string& payload) {
  exec::SupervisedJob job;
  job.key = key;
  job.name = name;
  job.run = [payload](std::string& out) {
    out = payload;
    return exec::Status();
  };
  return job;
}

// --- journal ---------------------------------------------------------------

TEST(Journal, WriterRoundTripsThroughReplay) {
  const std::string path = temp_path("supervisor_journal_roundtrip.jsonl");
  exec::JournalWriter writer;
  ASSERT_TRUE(writer.open(path, /*truncate=*/true).ok());

  exec::JournalRecord record;
  record.job = "00000000deadbeef";
  record.name = "c1";
  record.state = "pending";
  ASSERT_TRUE(writer.append(record).ok());
  record.state = "running";
  record.attempt = 1;
  ASSERT_TRUE(writer.append(record).ok());
  record.state = "done";
  record.status = "OK";
  record.row = "{\"name\": \"c1\", \"gates\": 5}";
  ASSERT_TRUE(writer.append(record).ok());
  writer.close();

  auto replay = exec::replay_journal_file(path);
  ASSERT_TRUE(replay.ok()) << replay.status().to_string();
  EXPECT_EQ(replay->records, 3u);
  EXPECT_EQ(replay->malformed, 0u);
  EXPECT_EQ(replay->last_seq, 3u);
  EXPECT_EQ(replay->duplicate_terminal, 0u);
  ASSERT_EQ(replay->jobs.size(), 1u);
  const auto& job = replay->jobs.at("00000000deadbeef");
  EXPECT_EQ(job.name, "c1");
  EXPECT_EQ(job.state, "done");
  EXPECT_EQ(job.status, "OK");
  EXPECT_EQ(job.attempt, 1);
  EXPECT_EQ(job.terminal_records, 1);
  // The row's exact bytes survive the JSON-string encoding round trip.
  EXPECT_EQ(job.row, "{\"name\": \"c1\", \"gates\": 5}");
}

TEST(Journal, StateTaxonomy) {
  EXPECT_FALSE(exec::journal_state_is_terminal("pending"));
  EXPECT_FALSE(exec::journal_state_is_terminal("running"));
  EXPECT_TRUE(exec::journal_state_is_terminal("done"));
  EXPECT_TRUE(exec::journal_state_is_terminal("failed"));
}

TEST(Journal, ReplayToleratesTruncationAndGarbage) {
  exec::JournalRecord record;
  record.seq = 1;
  record.job = "aaaaaaaaaaaaaaaa";
  record.name = "c1";
  record.state = "running";
  record.attempt = 1;
  const std::string valid = exec::journal_record_to_json(record);
  const std::string text = valid + "\nnot json at all\n" +
                           valid.substr(0, valid.size() / 2);
  const exec::JournalReplay replay = exec::replay_journal_text(text);
  EXPECT_EQ(replay.records, 1u);
  EXPECT_EQ(replay.malformed, 2u);
  ASSERT_EQ(replay.jobs.size(), 1u);
  // The job replays as non-terminal, so a resume re-runs it.
  EXPECT_EQ(replay.jobs.at("aaaaaaaaaaaaaaaa").state, "running");
  EXPECT_EQ(replay.jobs.at("aaaaaaaaaaaaaaaa").terminal_records, 0);
}

TEST(Journal, DuplicateTerminalIsAuditedFirstWins) {
  exec::JournalRecord record;
  record.job = "bbbbbbbbbbbbbbbb";
  record.name = "c2";
  record.state = "done";
  record.attempt = 1;
  record.status = "OK";
  record.row = "{\"name\": \"c2\"}";
  record.seq = 1;
  std::string text = exec::journal_record_to_json(record) + "\n";
  record.seq = 2;
  record.state = "failed";
  record.status = "INTERNAL";
  record.error = "should not win";
  text += exec::journal_record_to_json(record) + "\n";

  const exec::JournalReplay replay = exec::replay_journal_text(text);
  EXPECT_EQ(replay.duplicate_terminal, 1u);
  const auto& job = replay.jobs.at("bbbbbbbbbbbbbbbb");
  EXPECT_EQ(job.terminal_records, 2);
  // First terminal record wins; the later one never downgrades it.
  EXPECT_EQ(job.status, "OK");
  EXPECT_EQ(job.row, "{\"name\": \"c2\"}");
}

TEST(Journal, MissingFileIsUnavailable) {
  auto replay = exec::replay_journal_file(temp_path("no_such_journal.jsonl"));
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kUnavailable);
}

// --- supervisor ------------------------------------------------------------

TEST(Supervisor, RoundTripsPayloadsAcrossThePipe) {
  exec::testing::reset_shutdown();
  std::vector<exec::SupervisedJob> jobs;
  for (int i = 0; i < 3; ++i)
    jobs.push_back(ok_job(100 + i, "job" + std::to_string(i),
                          "payload-" + std::to_string(i)));
  exec::SupervisorOptions options;
  options.max_parallel = 2;
  std::size_t done_calls = 0;
  const exec::SupervisorResult result = exec::run_supervised(
      jobs, options, [&](const exec::JobOutcome&) { ++done_calls; });

  EXPECT_EQ(result.completed, 3u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.skipped, 0u);
  EXPECT_FALSE(result.interrupted);
  EXPECT_EQ(done_calls, 3u);
  ASSERT_EQ(result.outcomes.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const exec::JobOutcome& outcome = result.outcomes[i];
    EXPECT_EQ(outcome.index, i);
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.to_string();
    EXPECT_EQ(outcome.payload, "payload-" + std::to_string(i));
    EXPECT_EQ(outcome.attempts, 1);
    EXPECT_TRUE(outcome.ran);
    EXPECT_FALSE(outcome.crashed);
  }
}

TEST(Supervisor, CleanFailuresNeverRetry) {
  exec::testing::reset_shutdown();
  std::vector<exec::SupervisedJob> jobs(1);
  jobs[0].key = 7;
  jobs[0].name = "invalid";
  jobs[0].run = [](std::string&) {
    return exec::Status(StatusCode::kInvalidArgument, "bad knob");
  };
  exec::SupervisorOptions options;
  options.retry.max_attempts = 3;
  options.retry.base_backoff_ms = 1.0;
  const exec::SupervisorResult result = exec::run_supervised(jobs, options);
  EXPECT_EQ(result.failed, 1u);
  const exec::JobOutcome& outcome = result.outcomes[0];
  EXPECT_EQ(outcome.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(outcome.attempts, 1);  // deterministic failure: no retry
  EXPECT_FALSE(outcome.crashed);
  EXPECT_FALSE(exec::outcome_is_transient(outcome));
}

TEST(Supervisor, SegfaultBecomesInternalRowNotBatchDeath) {
  ObsCapture capture;
  FaultSpecGuard faults("job:segv:1@1");
  std::vector<exec::SupervisedJob> jobs;
  jobs.push_back(ok_job(11, "victim1", "x"));
  jobs.push_back(ok_job(12, "victim2", "y"));
  const exec::SupervisorResult result =
      exec::run_supervised(jobs, exec::SupervisorOptions{});

  EXPECT_EQ(result.failed, 2u);
  for (const exec::JobOutcome& outcome : result.outcomes) {
    EXPECT_EQ(outcome.status.code(), StatusCode::kInternal);
    EXPECT_TRUE(outcome.crashed);
    EXPECT_EQ(outcome.term_signal, SIGSEGV);
    EXPECT_TRUE(exec::outcome_is_transient(outcome));
  }
  EXPECT_EQ(obs::counter_total(obs::Counter::kSupervisorCrashes), 2u);
  const std::vector<std::string> events = obs::drain_events();
  EXPECT_EQ(ObsCapture::count_events(events, "job.spawn"), 2u);
  EXPECT_EQ(ObsCapture::count_events(events, "job.crash"), 2u);
}

TEST(Supervisor, TransientCrashSucceedsOnRetry) {
  ObsCapture capture;
  // Every first attempt dies; the retries run.
  FaultSpecGuard faults("job:kill:1@1");
  std::vector<exec::SupervisedJob> jobs;
  jobs.push_back(ok_job(21, "flaky", "recovered"));
  exec::SupervisorOptions options;
  options.retry.max_attempts = 2;
  options.retry.base_backoff_ms = 1.0;
  const exec::SupervisorResult result = exec::run_supervised(jobs, options);

  EXPECT_EQ(result.completed, 1u);
  const exec::JobOutcome& outcome = result.outcomes[0];
  EXPECT_TRUE(outcome.status.ok()) << outcome.status.to_string();
  EXPECT_EQ(outcome.attempts, 2);
  EXPECT_EQ(outcome.payload, "recovered");
  EXPECT_EQ(obs::counter_total(obs::Counter::kSupervisorRetries), 1u);
  const std::vector<std::string> events = obs::drain_events();
  EXPECT_EQ(ObsCapture::count_events(events, "retry.attempt"), 1u);
  EXPECT_EQ(ObsCapture::count_events(events, "job.spawn"), 2u);
}

TEST(Supervisor, HangHitsTheWallWatchdog) {
  exec::testing::reset_shutdown();
  FaultSpecGuard faults("job:hang:1@1");
  std::vector<exec::SupervisedJob> jobs;
  jobs.push_back(ok_job(31, "sleeper", "never"));
  exec::SupervisorOptions options;
  options.limits.wall_ms = 250.0;
  const exec::SupervisorResult result = exec::run_supervised(jobs, options);

  const exec::JobOutcome& outcome = result.outcomes[0];
  EXPECT_EQ(outcome.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(outcome.timed_out);
  EXPECT_TRUE(exec::outcome_is_transient(outcome));
}

TEST(Supervisor, OomBecomesResourceExhausted) {
  exec::testing::reset_shutdown();
  FaultSpecGuard faults("job:oom:1@1");
  std::vector<exec::SupervisedJob> jobs;
  jobs.push_back(ok_job(41, "hog", "never"));
  exec::SupervisorOptions options;
  options.limits.max_rss_bytes = 256ull << 20;
  const exec::SupervisorResult result = exec::run_supervised(jobs, options);

  const exec::JobOutcome& outcome = result.outcomes[0];
  EXPECT_EQ(outcome.status.code(), StatusCode::kResourceExhausted)
      << outcome.status.to_string();
  EXPECT_TRUE(exec::outcome_is_transient(outcome));
}

TEST(Supervisor, MaxCompletionsInterruptsDeterministically) {
  exec::testing::reset_shutdown();
  std::vector<exec::SupervisedJob> jobs;
  for (int i = 0; i < 4; ++i)
    jobs.push_back(ok_job(50 + i, "job" + std::to_string(i), "p"));
  exec::SupervisorOptions options;
  options.max_completions = 2;
  const exec::SupervisorResult result = exec::run_supervised(jobs, options);

  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.completed, 2u);
  EXPECT_EQ(result.skipped, 2u);
  std::size_t unran = 0;
  for (const exec::JobOutcome& outcome : result.outcomes)
    if (!outcome.ran) ++unran;
  EXPECT_EQ(unran, 2u);
}

/// Runs 64 always-OK jobs, keys 0..63, under `spec`; returns the mask of
/// keys whose final attempt was SIGKILLed.
std::uint64_t killed_keys(const std::string& spec, int max_attempts) {
  FaultSpecGuard faults(spec);
  std::vector<exec::SupervisedJob> jobs;
  for (std::uint64_t key = 0; key < 64; ++key)
    jobs.push_back(
        ok_job(key, std::string("k").append(std::to_string(key)), "ok"));
  exec::SupervisorOptions options;
  options.max_parallel = 4;
  options.retry.max_attempts = max_attempts;
  options.retry.base_backoff_ms = 1.0;
  const exec::SupervisorResult result = exec::run_supervised(jobs, options);
  std::uint64_t mask = 0;
  for (const exec::JobOutcome& outcome : result.outcomes) {
    EXPECT_EQ(outcome.attempts, max_attempts);
    if (outcome.crashed && outcome.term_signal == SIGKILL)
      mask |= std::uint64_t{1} << outcome.index;
    else
      EXPECT_TRUE(outcome.status.ok()) << outcome.status.to_string();
  }
  return mask;
}

TEST(Supervisor, KillDrawsArePinned) {
  // p-draws hash (job key, attempt, rule index); journaled resumes rely on
  // them replaying exactly, so the firing keys are pinned per attempt.
  exec::testing::reset_shutdown();
  EXPECT_EQ(killed_keys("job:kill:0.3", 1), 0xc0c0f030030343c2ull);
  // Rule 1 fails every first attempt that rule 0 spares, so every job
  // reaches attempt 2, where only rule 0's draw decides.
  EXPECT_EQ(killed_keys("job:kill:0.3,job:1@1", 2), 0xd0f0f0b00b0a0240ull);
}

TEST(Supervisor, HitCountsRestartInEveryJobAttempt) {
  exec::testing::reset_shutdown();
  FaultSpecGuard faults("sat:2");
  std::vector<exec::SupervisedJob> jobs;
  for (std::uint64_t key : {61, 62}) {
    jobs.push_back(ok_job(key, "hit-once", ""));
    jobs.back().run = [](std::string&) {
      exec::fault_point(exec::FaultSite::kSat);
      return exec::Status();
    };
  }
  // In one process the second hit faults...
  std::string payload;
  EXPECT_NO_THROW(jobs[0].run(payload));
  EXPECT_THROW(jobs[1].run(payload), exec::StatusError);
  // ...while every worker counts from zero, whatever the parent counted.
  const exec::SupervisorResult result =
      exec::run_supervised(jobs, exec::SupervisorOptions{});
  EXPECT_EQ(result.completed, 2u);
}

TEST(Supervisor, JobKeyHexIsStable) {
  EXPECT_EQ(exec::job_key_hex(0xdeadbeefull), "00000000deadbeef");
  EXPECT_EQ(exec::job_key_hex(0), "0000000000000000");
}

// --- supervised batch ------------------------------------------------------

TEST(SupervisedBatch, JobKeysAreStableAndSalted) {
  const IncompleteSpec spec = builtin_spec();
  flow::BatchOptions options;
  const std::uint64_t key =
      flow::batch_job_key(spec, "espresso", options);
  EXPECT_EQ(flow::batch_job_key(spec, "espresso", options), key);
  EXPECT_NE(flow::batch_job_key(spec, "espresso", options, 1), key);
  EXPECT_NE(flow::batch_job_key(spec, "espresso | factor", options), key);
  flow::BatchOptions other = options;
  other.budget.deadline_ms = 1000.0;
  EXPECT_NE(flow::batch_job_key(spec, "espresso", other), key);
}

TEST(SupervisedBatch, RejectsUnparsablePipelineAtBatchLevel) {
  std::vector<IncompleteSpec> specs;
  specs.push_back(builtin_spec());
  auto result = flow::run_pipeline_batch_supervised(
      "definitely not a pass |", specs, flow::SupervisedBatchOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SupervisedBatch, ResumedRunReproducesUninterruptedReport) {
  exec::testing::reset_shutdown();
  Rng rng(23);
  std::vector<IncompleteSpec> specs;
  specs.push_back(builtin_spec());
  specs.push_back(random_spec(5, 2, 0.4, rng, "rand5"));
  const std::string pipeline =
      "assign:ranking(0.5) | espresso | factor | aig | map:power";

  // Reference: one uninterrupted supervised run.
  flow::SupervisedBatchOptions options;
  options.journal_path = temp_path("supervisor_batch_a.journal");
  auto full = flow::run_pipeline_batch_supervised(pipeline, specs, options);
  ASSERT_TRUE(full.ok()) << full.status().to_string();
  EXPECT_EQ(full->failures, 0u);
  EXPECT_EQ(full->executed, 2u);
  EXPECT_FALSE(full->interrupted);

  // Interrupted run: stop after the first completion...
  options.journal_path = temp_path("supervisor_batch_b.journal");
  options.max_completions = 1;
  auto part = flow::run_pipeline_batch_supervised(pipeline, specs, options);
  ASSERT_TRUE(part.ok()) << part.status().to_string();
  EXPECT_TRUE(part->interrupted);
  EXPECT_EQ(part->executed, 1u);
  EXPECT_EQ(part->skipped, 1u);

  // ...then resume from the journal and finish.
  options.max_completions = 0;
  options.resume = true;
  auto resumed =
      flow::run_pipeline_batch_supervised(pipeline, specs, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().to_string();
  EXPECT_FALSE(resumed->interrupted);
  EXPECT_EQ(resumed->resumed, 1u);
  EXPECT_EQ(resumed->executed, 1u);
  EXPECT_EQ(resumed->failures, 0u);

  // The stitched report matches the uninterrupted one byte-for-byte
  // modulo wall-clock values.
  EXPECT_EQ(test::strip_timings(resumed->report.to_json()),
            test::strip_timings(full->report.to_json()));

  // Journal audit: every job reached exactly one terminal state.
  auto replay = exec::replay_journal_file(options.journal_path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->duplicate_terminal, 0u);
  ASSERT_EQ(replay->jobs.size(), 2u);
  for (const auto& [key, job] : replay->jobs) {
    EXPECT_EQ(job.terminal_records, 1) << key;
    EXPECT_EQ(job.state, "done") << key;
    EXPECT_FALSE(job.row.empty()) << key;
  }
}

TEST(SupervisedBatch, CrashedCircuitIsARowWhileNeighborsComplete) {
  ObsCapture capture;
  FaultSpecGuard faults("job:segv:1@1");
  Rng rng(29);
  std::vector<IncompleteSpec> specs;
  specs.push_back(builtin_spec());
  specs.push_back(random_spec(5, 1, 0.5, rng, "rand5"));

  flow::SupervisedBatchOptions options;
  // `@1` pins segv to the first attempt: with two attempts every circuit
  // crashes once and then completes.
  options.retry.max_attempts = 2;
  options.retry.base_backoff_ms = 1.0;
  auto result = flow::run_pipeline_batch_supervised(
      "assign:conventional | espresso", specs, options);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->failures, 0u);
  EXPECT_EQ(result->executed, 2u);
  EXPECT_GE(obs::counter_total(obs::Counter::kSupervisorCrashes), 2u);
  EXPECT_GE(obs::counter_total(obs::Counter::kSupervisorRetries), 2u);

  // Rows carry the retry attempt count; both recovered to OK.
  expect_ok_rows_after_two_attempts(result->report.to_json(), 2);
}

TEST(SupervisedBatch, AttemptFilteredFaultRetriesToOk) {
  // Hit counts restart in every attempt, so `espresso:1` would fail both;
  // `@1` faults each circuit's first attempt only.
  exec::testing::reset_shutdown();
  FaultSpecGuard faults("espresso:1@1");
  Rng rng(31);
  std::vector<IncompleteSpec> specs;
  specs.push_back(builtin_spec());
  specs.push_back(random_spec(5, 1, 0.5, rng, "rand5"));

  flow::SupervisedBatchOptions options;
  options.retry.max_attempts = 2;
  options.retry.base_backoff_ms = 1.0;
  auto result = flow::run_pipeline_batch_supervised(
      "assign:conventional | espresso", specs, options);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->failures, 0u);
  expect_ok_rows_after_two_attempts(result->report.to_json(), 2);
}

}  // namespace
}  // namespace rdc
