// Content-addressed result cache for the rdcsynd daemon (DESIGN.md §15).
//
// Keyed on hash(spec bytes, canonical pipeline spec, budget_fingerprint)
// — the same FNV-1a construction the batch supervisor uses for job
// identity, so two requests that would produce the same report row share
// one entry regardless of which connection or process sent them. Values
// are the serialized rdc.flow.report.v1 document of the cold run; a hit
// returns those exact bytes, which is what makes warm replies
// byte-identical to cold ones.
//
// Bounded by construction: LRU eviction against a byte-size cap (entry
// cost = JSON bytes + a fixed bookkeeping overhead). An entry larger
// than the whole cap is simply not cached — inserting it would evict
// everything for a value that can never be hit economically.
//
// Thread-safe; lookups and inserts also bump the process-wide
// serve.cache.{hit,miss,evict} counters so RDC_METRICS exposes the cache
// without asking the server for its private stats.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace rdc::serve {

/// Cache key for (spec bytes, canonical pipeline, budget fingerprint).
/// FNV-1a over all three, with field separators so concatenation
/// ambiguity cannot alias two different requests.
std::uint64_t result_cache_key(std::string_view spec_bytes,
                               std::string_view canonical_pipeline,
                               std::uint64_t options_fingerprint);

class ResultCache {
 public:
  /// Fixed per-entry bookkeeping charged against the byte cap on top of
  /// the JSON payload (list/map nodes, key, amortized string headers).
  static constexpr std::uint64_t kEntryOverheadBytes = 96;

  explicit ResultCache(std::uint64_t max_bytes) : max_bytes_(max_bytes) {}

  /// Returns the cached report JSON and refreshes the entry's LRU
  /// position; counts serve.cache.{hit,miss}.
  std::optional<std::string> lookup(std::uint64_t key);

  /// Inserts (or refreshes) an entry, then evicts least-recently-used
  /// entries until the byte cap holds; counts serve.cache.evict per
  /// eviction. Oversized values (entry cost > cap) are ignored.
  void insert(std::uint64_t key, std::string report_json);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t bytes = 0;
    std::uint64_t entries = 0;
  };
  Stats stats() const;

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::string json;
  };
  static std::uint64_t entry_bytes(const Entry& entry) {
    return entry.json.size() + kEntryOverheadBytes;
  }

  mutable std::mutex mutex_;
  std::uint64_t max_bytes_;
  std::uint64_t bytes_ = 0;
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
};

}  // namespace rdc::serve
