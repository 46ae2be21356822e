// Journaled work queue for crash-safe batch execution (DESIGN.md §14).
//
// The supervisor's durable job state is an append-only JSONL manifest,
// schema rdc.journal.v1: one record per state transition, fdatasync'd
// before the transition takes effect, so an interrupted batch resumes
// exactly where it stopped — no job lost, none run twice. A record:
//
//   {"schema": "rdc.journal.v1", "seq": 7, "ts": "2026-08-08T12:00:00Z",
//    "job": "6a1f0c3e9b2d4875", "name": "decoder3", "state": "done",
//    "attempt": 2, "status": "OK", "row": "{\"name\": \"decoder3\", ...}"}
//
// `job` is the 16-hex job key (hash of spec bytes, canonical pipeline,
// options — see flow::batch_job_key). States: pending (enqueued), running
// (worker forked, written *before* the fork), done / failed (terminal;
// carry the status code and, as a JSON-encoded string, the finished
// report row so a resumed run reproduces its aggregate report
// byte-for-byte without re-executing the job).
//
// Replay is tolerant by design: a line truncated by a crash (or any
// malformed line) is counted in `malformed` and skipped, never fatal —
// the corresponding job simply replays as non-terminal and re-runs. The
// audit counters (`terminal_records` per job, `duplicate_terminal`) are
// how the fault-resume smoke proves "none executed twice".
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "exec/status.hpp"

namespace rdc::exec {

struct JournalRecord {
  std::uint64_t seq = 0;  ///< stamped by JournalWriter::append
  std::string ts;         ///< stamped by JournalWriter::append (ISO 8601)
  std::string job;        ///< 16-hex job key
  std::string name;       ///< human label (circuit name)
  std::string state;      ///< pending | running | done | failed
  int attempt = 0;        ///< 1-based; 0 = not applicable (pending)
  std::string status;     ///< UPPER_SNAKE status code (terminal states)
  std::string error;      ///< status detail (failed only)
  std::string row;        ///< serialized report row JSON (terminal states)
};

/// True for the states that mean "this job must not run again".
bool journal_state_is_terminal(std::string_view state);

/// One rdc.journal.v1 line (compact JSON, no trailing newline). Empty
/// optional fields are omitted.
std::string journal_record_to_json(const JournalRecord& record);

/// Append-only writer with per-record durability: every append writes one
/// line and fdatasync()s it before returning, so a record the caller has
/// seen succeed survives any later crash of this process.
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Opens `path` for appending (creating it; truncating when `truncate`
  /// — a fresh, non-resumed run). kUnavailable on I/O failure.
  Status open(const std::string& path, bool truncate);
  bool is_open() const { return fd_ >= 0; }

  /// First seq to stamp (resume continues the replayed journal's numbering).
  void set_next_seq(std::uint64_t seq) { next_seq_ = seq; }

  /// Stamps seq + timestamp, appends one line, fdatasyncs. No-op (OK)
  /// when the writer is not open, so unjournaled runs share the call sites.
  Status append(JournalRecord record);

  void close();

 private:
  int fd_ = -1;
  std::uint64_t next_seq_ = 1;
};

/// The replayed view of a journal: per-job final state plus the audit
/// counters the resume path and the fault-resume smoke check.
struct JournalReplay {
  struct Job {
    std::string name;
    std::string state;   ///< last state seen
    std::string status;  ///< from the first terminal record
    std::string error;
    std::string row;
    int attempt = 0;
    int terminal_records = 0;
  };
  std::map<std::string, Job> jobs;  ///< keyed by 16-hex job key
  std::uint64_t last_seq = 0;
  std::size_t records = 0;             ///< well-formed records replayed
  std::size_t malformed = 0;           ///< skipped lines (truncation, noise)
  std::size_t duplicate_terminal = 0;  ///< audit: terminal records beyond
                                       ///< the first, summed over jobs
};

/// Replays journal text. Never throws on malformed input (fuzzed).
JournalReplay replay_journal_text(std::string_view text);

/// Replays a journal file; kUnavailable when it cannot be read.
Result<JournalReplay> replay_journal_file(const std::string& path);

}  // namespace rdc::exec
