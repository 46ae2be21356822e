#include "serve/cache.hpp"

#include "common/hash.hpp"
#include "obs/counters.hpp"

namespace rdc::serve {

std::uint64_t result_cache_key(std::string_view spec_bytes,
                               std::string_view canonical_pipeline,
                               std::uint64_t options_fingerprint) {
  std::uint64_t hash = fnv1a(spec_bytes);
  hash = fnv1a("\x1f", hash);  // field separator: "ab"+"c" != "a"+"bc"
  hash = fnv1a(canonical_pipeline, hash);
  hash = fnv1a("\x1f", hash);
  hash = fnv1a_bytes(&options_fingerprint, sizeof options_fingerprint, hash);
  return hash;
}

std::optional<std::string> ResultCache::lookup(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    obs::count(obs::Counter::kServeCacheMiss);
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  obs::count(obs::Counter::kServeCacheHit);
  return it->second->json;
}

void ResultCache::insert(std::uint64_t key, std::string report_json) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (report_json.size() + kEntryOverheadBytes > max_bytes_) return;
  const auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ -= entry_bytes(*it->second);
    it->second->json = std::move(report_json);
    bytes_ += entry_bytes(*it->second);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front({key, std::move(report_json)});
    index_[key] = lru_.begin();
    bytes_ += entry_bytes(lru_.front());
  }
  while (bytes_ > max_bytes_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    bytes_ -= entry_bytes(victim);
    index_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
    obs::count(obs::Counter::kServeCacheEvict);
  }
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {hits_, misses_, evictions_, bytes_,
          static_cast<std::uint64_t>(lru_.size())};
}

}  // namespace rdc::serve
