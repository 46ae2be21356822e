// 64-bit FNV-1a: the one hash behind every stable key and seed — serve
// cache keys, batch job keys, budget fingerprints, RDC_FAULT p-draws,
// retry jitter, per-benchmark seeds. Values are persisted
// (journals, warm caches) and compared across runs, so the byte sequence
// each caller feeds in is part of its format.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace rdc {

inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ull;

/// FNV-1a over `size` bytes at `data`, continuing from `hash`.
inline std::uint64_t fnv1a_bytes(const void* data, std::size_t size,
                                 std::uint64_t hash = kFnv1aOffset) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnv1aPrime;
  }
  return hash;
}

/// FNV-1a over the bytes of `text`, continuing from `hash`.
inline std::uint64_t fnv1a(std::string_view text,
                           std::uint64_t hash = kFnv1aOffset) {
  return fnv1a_bytes(text.data(), text.size(), hash);
}

/// Mixes the eight bytes of `value`, least significant first, so the
/// result does not depend on the host's byte order.
inline std::uint64_t fnv1a_u64(std::uint64_t value,
                               std::uint64_t hash = kFnv1aOffset) {
  for (unsigned byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (byte * 8)) & 0xff;
    hash *= kFnv1aPrime;
  }
  return hash;
}

/// Mixes the IEEE-754 bit pattern of `value` (see fnv1a_u64).
inline std::uint64_t fnv1a_double(double value,
                                  std::uint64_t hash = kFnv1aOffset) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return fnv1a_u64(bits, hash);
}

}  // namespace rdc
