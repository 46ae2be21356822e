// Process-wide counters and histograms for kernel-level statistics,
// sharded per thread and merged on report.
//
// Each thread owns one shard of plain relaxed atomics; count() is an
// inlined enabled-flag check plus one fetch_add on the calling thread's
// shard, so instrumenting a hot kernel costs nothing measurable and the
// merged totals are exact at any RDC_THREADS (sums commute). Counters are
// enabled automatically whenever tracing is (RDC_TRACE set), by
// RDC_COUNTERS=1, or programmatically via set_counters_enabled — the
// report layer in bench_util switches them on for --json runs.
//
// Everything here is deterministic across thread counts except the
// wall-clock counters (see counter_is_deterministic), which the JSON
// reports therefore exclude.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace rdc::obs {

enum class Counter : unsigned {
  kErrorRateCalls,          ///< exact_error_rate invocations (single output)
  kErrorRateMinterms,       ///< minterms scanned by those calls
  kNeighborTableBuilds,     ///< word-parallel NeighborTable constructions
  kComplexityEvals,         ///< complexity_factor evaluations
  kDcRankingAssigned,       ///< DCs assigned by ranking_assign
  kDcIncrementalAssigned,   ///< DCs assigned by ranking_assign_incremental
  kDcLcfAssigned,           ///< DCs assigned by lcf_assign
  kDcConventionalAssigned,  ///< DCs assigned by conventional_assign
  // The incremental error-rate tracker that counted full recomputes
  // (syncs) and single-flip deltas (flips) is gone, so these two always
  // read 0. They stay only because perfbench reads them, and go with the
  // next change to perfbench.
  kErrorTrackerSyncs,
  kErrorTrackerFlips,
  kEspressoCalls,           ///< minimize_bounded() invocations
  kEspressoIterations,      ///< reduce/expand/irredundant loop iterations
  kAigAndsBuilt,            ///< AND nodes in flow-constructed AIGs
  kMapRuns,                 ///< map_aig invocations
  kMapGates,                ///< gates emitted by those mappings
  kPoolJobs,                ///< parallel_for invocations (incl. inline runs)
  kPoolTasks,               ///< parallel_for indices executed
  kPoolWorkerTasks,         ///< indices per worker shard (scheduling-dep.)
  kPoolBusyNs,              ///< wall time workers spent inside jobs
  kSupervisorRetries,       ///< supervised job attempts scheduled for retry
  kSupervisorCrashes,       ///< workers that died without a result frame
  kSupervisorResumes,       ///< batches resumed from a journal
  kServeAccepted,           ///< requests admitted past the serve queue
  kServeShed,               ///< requests rejected with kResourceExhausted
  kServeTimeout,            ///< connections dropped on a read/write deadline
  kServeCacheHit,           ///< result-cache hits
  kServeCacheMiss,          ///< result-cache misses
  kServeCacheEvict,         ///< result-cache entries evicted by the byte cap
  kCount,
};
inline constexpr unsigned kNumCounters =
    static_cast<unsigned>(Counter::kCount);

/// Stable snake.case name used in summaries and JSON reports.
const char* counter_name(Counter c);

/// False for wall-clock counters whose value depends on scheduling;
/// the machine-readable reports only include deterministic counters.
bool counter_is_deterministic(Counter c);

enum class Histo : unsigned {
  kEspressoIterations,  ///< loop iterations per minimize_bounded() call
  kPoolTasksPerJob,     ///< indices per parallel_for invocation
  kCount,
};
inline constexpr unsigned kNumHistos = static_cast<unsigned>(Histo::kCount);

const char* histo_name(Histo h);

/// Power-of-two bucket edges: bucket b holds values in [2^(b-1)+1 .. 2^b]
/// with bucket 0 holding exactly {0, 1}; the last bucket is open-ended.
inline constexpr unsigned kHistoBuckets = 16;

namespace detail {

struct Shard {
  std::array<std::atomic<std::uint64_t>, kNumCounters> counters{};
  struct HistoShard {
    std::array<std::atomic<std::uint64_t>, kHistoBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
  };
  std::array<HistoShard, kNumHistos> histos{};
};

extern std::atomic<int> g_counters_enabled;  // -1 until env is consulted
int init_counters_enabled_from_env();
extern thread_local Shard* tls_shard;
Shard& create_shard();
inline Shard& shard() {
  return tls_shard != nullptr ? *tls_shard : create_shard();
}
unsigned histo_bucket(std::uint64_t value);

}  // namespace detail

inline bool counters_enabled() {
  const int enabled =
      detail::g_counters_enabled.load(std::memory_order_relaxed);
  return (enabled >= 0 ? enabled : detail::init_counters_enabled_from_env()) !=
         0;
}

void set_counters_enabled(bool enabled);

/// Adds `delta` to counter `c`; no-op (one load + branch) when disabled.
inline void count(Counter c, std::uint64_t delta = 1) {
  if (!counters_enabled()) return;
  detail::shard()
      .counters[static_cast<unsigned>(c)]
      .fetch_add(delta, std::memory_order_relaxed);
}

/// Records one observation of `value`; no-op when disabled.
inline void observe(Histo h, std::uint64_t value) {
  if (!counters_enabled()) return;
  auto& shard = detail::shard().histos[static_cast<unsigned>(h)];
  shard.buckets[detail::histo_bucket(value)].fetch_add(
      1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
}

/// Merged total of one counter across every shard.
std::uint64_t counter_total(Counter c);

struct HistoData {
  std::array<std::uint64_t, kHistoBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Merged view of one histogram across every shard.
HistoData histo_total(Histo h);

/// Zeroes every shard. Only meaningful while no other thread is counting
/// (tests, or between benchmark repetitions).
void reset_counters();

/// Per-thread pool activity, from the shard owned by each named worker.
struct WorkerStats {
  std::string name;
  std::uint64_t tasks = 0;
  std::uint64_t busy_ns = 0;
};
std::vector<WorkerStats> worker_stats();

/// Human-readable dump of all non-zero counters, histograms, and worker
/// utilization (the RDC_TRACE=summary companion table).
void write_counters_summary(std::FILE* out);

}  // namespace rdc::obs
