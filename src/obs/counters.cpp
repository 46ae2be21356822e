#include "obs/counters.hpp"

#include <bit>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "obs/trace.hpp"

namespace rdc::obs {
namespace {

constexpr const char* kCounterNames[kNumCounters] = {
    "error_rate.calls",
    "error_rate.minterms",
    "neighbor_table.builds",
    "complexity.evals",
    "dc.ranking_assigned",
    "dc.incremental_assigned",
    "dc.lcf_assigned",
    "dc.conventional_assigned",
    "error_tracker.syncs",
    "error_tracker.flips",
    "espresso.calls",
    "espresso.iterations",
    "aig.ands_built",
    "map.runs",
    "map.gates",
    "pool.jobs",
    "pool.tasks",
    "pool.worker_tasks",
    "pool.busy_ns",
    "supervisor.retries",
    "supervisor.crashes",
    "supervisor.resumes",
    "serve.accepted",
    "serve.shed",
    "serve.timeout",
    "serve.cache.hit",
    "serve.cache.miss",
    "serve.cache.evict",
};

constexpr const char* kHistoNames[kNumHistos] = {
    "espresso.iterations_per_call",
    "pool.tasks_per_job",
};

struct ShardEntry {
  detail::Shard* shard = nullptr;
  std::uint32_t tid = 0;
};

struct ShardRegistry {
  std::mutex mutex;
  std::vector<ShardEntry> entries;
};

ShardRegistry& shard_registry() {
  // Leaked, like the trace buffers: pool workers may still count during
  // static destruction.
  static ShardRegistry* instance = new ShardRegistry;
  return *instance;
}

}  // namespace

namespace detail {

std::atomic<int> g_counters_enabled{-1};
thread_local Shard* tls_shard = nullptr;

int init_counters_enabled_from_env() {
  const auto truthy = [](const char* env) {
    return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0 &&
           std::strcmp(env, "off") != 0;
  };
  const int enabled =
      truthy(std::getenv("RDC_COUNTERS")) || truthy(std::getenv("RDC_TRACE"))
          ? 1
          : 0;
  int expected = -1;
  g_counters_enabled.compare_exchange_strong(expected, enabled,
                                             std::memory_order_relaxed);
  return g_counters_enabled.load(std::memory_order_relaxed);
}

Shard& create_shard() {
  auto* shard = new Shard;  // leaked: see shard_registry
  ShardRegistry& reg = shard_registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.entries.push_back({shard, current_thread_id()});
  tls_shard = shard;
  return *shard;
}

unsigned histo_bucket(std::uint64_t value) {
  if (value <= 1) return 0;
  const unsigned bucket = static_cast<unsigned>(std::bit_width(value - 1));
  return bucket < kHistoBuckets ? bucket : kHistoBuckets - 1;
}

}  // namespace detail

const char* counter_name(Counter c) {
  return kCounterNames[static_cast<unsigned>(c)];
}

bool counter_is_deterministic(Counter c) {
  // Which worker executes an index and how long it stays busy depend on
  // scheduling; additionally, a straggler worker can publish these after
  // the owning parallel_for already returned, so they are also racy to
  // read at report time. The supervisor counters depend on fault injection
  // and signal timing, so a fault-interrupted batch must not diverge from
  // an uninterrupted one in report JSON. The serve counters depend on
  // traffic and admission timing for the same reason. Everything else is
  // pure work arithmetic.
  return c != Counter::kPoolBusyNs && c != Counter::kPoolWorkerTasks &&
         c != Counter::kSupervisorRetries &&
         c != Counter::kSupervisorCrashes &&
         c != Counter::kSupervisorResumes && c != Counter::kServeAccepted &&
         c != Counter::kServeShed && c != Counter::kServeTimeout &&
         c != Counter::kServeCacheHit && c != Counter::kServeCacheMiss &&
         c != Counter::kServeCacheEvict;
}

const char* histo_name(Histo h) {
  return kHistoNames[static_cast<unsigned>(h)];
}

void set_counters_enabled(bool enabled) {
  detail::g_counters_enabled.store(enabled ? 1 : 0,
                                   std::memory_order_relaxed);
}

std::uint64_t counter_total(Counter c) {
  const unsigned index = static_cast<unsigned>(c);
  std::uint64_t total = 0;
  ShardRegistry& reg = shard_registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (const ShardEntry& entry : reg.entries)
    total += entry.shard->counters[index].load(std::memory_order_relaxed);
  return total;
}

HistoData histo_total(Histo h) {
  const unsigned index = static_cast<unsigned>(h);
  HistoData data;
  ShardRegistry& reg = shard_registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (const ShardEntry& entry : reg.entries) {
    const auto& shard = entry.shard->histos[index];
    for (unsigned b = 0; b < kHistoBuckets; ++b)
      data.buckets[b] += shard.buckets[b].load(std::memory_order_relaxed);
    data.count += shard.count.load(std::memory_order_relaxed);
    data.sum += shard.sum.load(std::memory_order_relaxed);
  }
  return data;
}

void reset_counters() {
  ShardRegistry& reg = shard_registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (const ShardEntry& entry : reg.entries) {
    for (auto& counter : entry.shard->counters)
      counter.store(0, std::memory_order_relaxed);
    for (auto& histo : entry.shard->histos) {
      for (auto& bucket : histo.buckets)
        bucket.store(0, std::memory_order_relaxed);
      histo.count.store(0, std::memory_order_relaxed);
      histo.sum.store(0, std::memory_order_relaxed);
    }
  }
}

std::vector<WorkerStats> worker_stats() {
  std::vector<std::pair<std::uint32_t, std::string>> names = thread_names();
  const auto name_of = [&](std::uint32_t tid) {
    for (const auto& [id, name] : names)
      if (id == tid) return name;
    return "thread-" + std::to_string(tid);
  };
  std::vector<WorkerStats> stats;
  ShardRegistry& reg = shard_registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (const ShardEntry& entry : reg.entries) {
    const std::uint64_t tasks =
        entry.shard
            ->counters[static_cast<unsigned>(Counter::kPoolWorkerTasks)]
            .load(std::memory_order_relaxed);
    const std::uint64_t busy_ns =
        entry.shard->counters[static_cast<unsigned>(Counter::kPoolBusyNs)]
            .load(std::memory_order_relaxed);
    if (tasks == 0 && busy_ns == 0) continue;
    stats.push_back({name_of(entry.tid), tasks, busy_ns});
  }
  return stats;
}

void write_counters_summary(std::FILE* out) {
  std::fprintf(out, "\n[rdc::obs] counters\n");
  bool any = false;
  for (unsigned i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    const std::uint64_t total = counter_total(c);
    if (total == 0) continue;
    any = true;
    std::fprintf(out, "%-28s %14llu\n", counter_name(c),
                 static_cast<unsigned long long>(total));
  }
  if (!any) std::fprintf(out, "(all zero)\n");

  for (unsigned i = 0; i < kNumHistos; ++i) {
    const auto h = static_cast<Histo>(i);
    const HistoData data = histo_total(h);
    if (data.count == 0) continue;
    std::fprintf(out, "\n[rdc::obs] histogram %s (count %llu, mean %.2f)\n",
                 histo_name(h), static_cast<unsigned long long>(data.count),
                 data.mean());
    for (unsigned b = 0; b < kHistoBuckets; ++b) {
      if (data.buckets[b] == 0) continue;
      const std::uint64_t lo = b == 0 ? 0 : (1ull << (b - 1)) + 1;
      const std::uint64_t hi = 1ull << b;
      if (b + 1 == kHistoBuckets)
        std::fprintf(out, "  [%llu..   ] %12llu\n",
                     static_cast<unsigned long long>(lo),
                     static_cast<unsigned long long>(data.buckets[b]));
      else
        std::fprintf(out, "  [%llu..%llu] %12llu\n",
                     static_cast<unsigned long long>(lo),
                     static_cast<unsigned long long>(hi),
                     static_cast<unsigned long long>(data.buckets[b]));
    }
  }

  const std::vector<WorkerStats> workers = worker_stats();
  if (!workers.empty()) {
    std::fprintf(out, "\n[rdc::obs] pool utilization\n");
    std::fprintf(out, "%-20s %10s %12s\n", "thread", "tasks", "busy_ms");
    for (const WorkerStats& w : workers)
      std::fprintf(out, "%-20s %10llu %12.2f\n", w.name.c_str(),
                   static_cast<unsigned long long>(w.tasks),
                   static_cast<double>(w.busy_ns) / 1e6);
  }
}

}  // namespace rdc::obs
