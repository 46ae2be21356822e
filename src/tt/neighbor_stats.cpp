#include "tt/neighbor_stats.hpp"

#include <array>
#include <bit>
#include <cassert>
#include <cstring>

#include "common/bitvec.hpp"
#include "common/simd.hpp"
#include "exec/budget.hpp"
#include "exec/fault.hpp"
#include "obs/counters.hpp"

#if RDC_SIMD_X86
#include <immintrin.h>
#endif

namespace rdc {
namespace {

/// Bit-sliced vertical counter for one 64-minterm word: plane p holds bit p
/// of a per-position count. 5 planes count to 31, enough for
/// n <= kMaxInputs. Kept entirely in registers — the whole neighbor-count
/// accumulation for a word runs without touching memory.
constexpr unsigned kPlanes = 5;

constexpr std::uint64_t kLowBytes = 0x0101010101010101ull;
constexpr std::uint64_t kByteDiag = 0x8040201008040201ull;
constexpr std::uint64_t kHigh7 = 0x7F7F7F7F7F7F7F7Full;

/// Spreads the low byte of `bits` into 8 bytes of value 0/1 (byte i = bit i).
constexpr std::uint64_t spread_byte(std::uint64_t bits) {
  const std::uint64_t diag = ((bits & 0xFF) * kLowBytes) & kByteDiag;
  return ((diag + kHigh7) >> 7) & kLowBytes;
}

/// kSpreadLut[p][b] = the 8 bits of byte b spread to 8 bytes, pre-shifted
/// to plane weight 2^p. 10 KiB, L1-resident; one lookup replaces the
/// multiply-spread plus weight shift in the transpose inner loop.
constexpr auto kSpreadLut = [] {
  std::array<std::array<std::uint64_t, 256>, kPlanes> t{};
  for (unsigned p = 0; p < kPlanes; ++p)
    for (unsigned b = 0; b < 256; ++b) t[p][b] = spread_byte(b) << p;
  return t;
}();

/// Carry-save full adder over 64 positions: a + b + c = 2h + l, bitwise.
inline void csa(std::uint64_t& h, std::uint64_t& l, std::uint64_t a,
                std::uint64_t b, std::uint64_t c) {
  const std::uint64_t u = a ^ b;
  h = (a & b) | (u & c);
  l = u ^ c;
}

struct WordCounter {
  std::uint64_t plane[kPlanes] = {0, 0, 0, 0, 0};

  /// Ripple-carry add of one weight-1 bitset word.
  void add(std::uint64_t bits) {
    std::uint64_t carry = bits;
    for (unsigned p = 0; p < kPlanes && carry != 0; ++p) {
      const std::uint64_t t = plane[p] & carry;
      plane[p] ^= carry;
      carry = t;
    }
    assert(carry == 0 && "vertical counter overflow");
  }

  /// Harley-Seal block: adds 8 weight-1 words with a branchless carry-save
  /// adder tree (7 CSAs + one weight-8 fold) instead of 8 ripple passes.
  void add8(const std::uint64_t* x) {
    std::uint64_t t1, t2, f1, f2, e1;
    csa(t1, plane[0], plane[0], x[0], x[1]);
    csa(t2, plane[0], plane[0], x[2], x[3]);
    csa(f1, plane[1], plane[1], t1, t2);
    csa(t1, plane[0], plane[0], x[4], x[5]);
    csa(t2, plane[0], plane[0], x[6], x[7]);
    csa(f2, plane[1], plane[1], t1, t2);
    csa(e1, plane[2], plane[2], f1, f2);
    plane[4] ^= plane[3] & e1;
    plane[3] ^= e1;
  }

};

/// Transposes 5 vertical-counter planes of one word into count bytes:
/// out[g] byte k = count at position 8g+k. Plane-major with 8 independent
/// accumulators, so the LUT loads pipeline instead of serializing on one
/// chain. Counts <= 31 never carry between bytes, so the weighted byte sums
/// stay exact. Shared by the scalar and SIMD builds (the SIMD paths spill
/// their vector planes per word and reuse this transpose).
inline void transpose_planes(const std::uint64_t plane[kPlanes],
                             std::uint64_t out[8]) {
  std::uint64_t acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (unsigned p = 0; p < kPlanes; ++p) {
    const std::uint64_t w = plane[p];
    const auto& lut = kSpreadLut[p];
    for (unsigned g = 0; g < 8; ++g) acc[g] += lut[(w >> (8 * g)) & 0xFF];
  }
  for (unsigned g = 0; g < 8; ++g) out[g] = acc[g];
}

#if RDC_SIMD_X86

#if defined(__GNUC__) && !defined(__clang__)
// Spurious -Wmaybe-uninitialized from GCC's _mm*_undefined_* helpers when
// the immintrin.h reduce/extract intrinsics are inlined here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

// --- SIMD Harley-Seal block accumulators ----------------------------------
//
// Same vertical-counter algorithm, run over 4 (AVX2) or 8 (AVX-512)
// lattice words per vector lane-wise: plane p is one vector whose 64-bit
// lane i holds plane p of word w+i. The neighbor permutations vectorize
// directly — lane-local shift/mask pairs for j < 6, lane permutes for the
// 1/2(/4)-word strides, and whole-block loads at w ^ stride once the
// stride covers the vector. The planes are spilled per block and pushed
// through the scalar transpose_planes, which is off the critical path.

__attribute__((target("avx2"))) inline void csa256(__m256i& h, __m256i& l,
                                                   __m256i a, __m256i b,
                                                   __m256i c) {
  const __m256i u = _mm256_xor_si256(a, b);
  h = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
  l = _mm256_xor_si256(u, c);
}

__attribute__((target("avx2"))) inline void add_one256(__m256i plane[kPlanes],
                                                       __m256i bits) {
  __m256i carry = bits;
  for (unsigned p = 0; p < kPlanes; ++p) {
    const __m256i t = _mm256_and_si256(plane[p], carry);
    plane[p] = _mm256_xor_si256(plane[p], carry);
    carry = t;
  }
}

__attribute__((target("avx2"))) inline void add8_256(__m256i plane[kPlanes],
                                                     const __m256i x[8]) {
  __m256i t1, t2, f1, f2, e1;
  csa256(t1, plane[0], plane[0], x[0], x[1]);
  csa256(t2, plane[0], plane[0], x[2], x[3]);
  csa256(f1, plane[1], plane[1], t1, t2);
  csa256(t1, plane[0], plane[0], x[4], x[5]);
  csa256(t2, plane[0], plane[0], x[6], x[7]);
  csa256(f2, plane[1], plane[1], t1, t2);
  csa256(e1, plane[2], plane[2], f1, f2);
  plane[4] = _mm256_xor_si256(plane[4], _mm256_and_si256(plane[3], e1));
  plane[3] = _mm256_xor_si256(plane[3], e1);
}

/// Accumulates neighbor counts for the 4 words src[w..w+3] (w % 4 == 0);
/// out[p][i] = plane p of word w + i.
__attribute__((target("avx2"))) void accumulate_block_avx2(
    const std::uint64_t* src, std::size_t w, unsigned n,
    std::uint64_t out[kPlanes][4]) {
  const __m256i word =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
  __m256i xs[TernaryTruthTable::kMaxInputs];
  const unsigned in_word = n < 6 ? n : 6;
  for (unsigned j = 0; j < in_word; ++j) {
    const __m256i mask =
        _mm256_set1_epi64x(static_cast<long long>(kWordShiftMask[j]));
    const __m128i s = _mm_cvtsi32_si128(static_cast<int>(1u << j));
    xs[j] = _mm256_or_si256(_mm256_and_si256(_mm256_srl_epi64(word, s), mask),
                            _mm256_sll_epi64(_mm256_and_si256(word, mask), s));
  }
  for (unsigned j = 6; j < n; ++j) {
    const std::size_t stride = std::size_t{1} << (j - 6);
    if (stride == 1)
      xs[j] = _mm256_permute4x64_epi64(word, 0xB1);
    else if (stride == 2)
      xs[j] = _mm256_permute4x64_epi64(word, 0x4E);
    else
      xs[j] = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(src + (w ^ stride)));
  }
  __m256i plane[kPlanes] = {_mm256_setzero_si256(), _mm256_setzero_si256(),
                            _mm256_setzero_si256(), _mm256_setzero_si256(),
                            _mm256_setzero_si256()};
  unsigned j = 0;
  for (; j + 8 <= n; j += 8) add8_256(plane, xs + j);
  for (; j < n; ++j) add_one256(plane, xs[j]);
  for (unsigned p = 0; p < kPlanes; ++p)
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out[p]), plane[p]);
}

#define RDC_NS_AVX512_TARGET \
  "avx512f,avx512bw,avx512dq,avx512vl,avx512vpopcntdq"

__attribute__((target(RDC_NS_AVX512_TARGET))) inline void csa512(
    __m512i& h, __m512i& l, __m512i a, __m512i b, __m512i c) {
  const __m512i u = _mm512_xor_si512(a, b);
  h = _mm512_or_si512(_mm512_and_si512(a, b), _mm512_and_si512(u, c));
  l = _mm512_xor_si512(u, c);
}

__attribute__((target(RDC_NS_AVX512_TARGET))) inline void add_one512(
    __m512i plane[kPlanes], __m512i bits) {
  __m512i carry = bits;
  for (unsigned p = 0; p < kPlanes; ++p) {
    const __m512i t = _mm512_and_si512(plane[p], carry);
    plane[p] = _mm512_xor_si512(plane[p], carry);
    carry = t;
  }
}

__attribute__((target(RDC_NS_AVX512_TARGET))) inline void add8_512(
    __m512i plane[kPlanes], const __m512i x[8]) {
  __m512i t1, t2, f1, f2, e1;
  csa512(t1, plane[0], plane[0], x[0], x[1]);
  csa512(t2, plane[0], plane[0], x[2], x[3]);
  csa512(f1, plane[1], plane[1], t1, t2);
  csa512(t1, plane[0], plane[0], x[4], x[5]);
  csa512(t2, plane[0], plane[0], x[6], x[7]);
  csa512(f2, plane[1], plane[1], t1, t2);
  csa512(e1, plane[2], plane[2], f1, f2);
  plane[4] = _mm512_xor_si512(plane[4], _mm512_and_si512(plane[3], e1));
  plane[3] = _mm512_xor_si512(plane[3], e1);
}

/// Accumulates neighbor counts for the 8 words src[w..w+7] (w % 8 == 0).
__attribute__((target(RDC_NS_AVX512_TARGET))) void accumulate_block_avx512(
    const std::uint64_t* src, std::size_t w, unsigned n,
    std::uint64_t out[kPlanes][8]) {
  const __m512i word = _mm512_loadu_si512(src + w);
  __m512i xs[TernaryTruthTable::kMaxInputs];
  const unsigned in_word = n < 6 ? n : 6;
  for (unsigned j = 0; j < in_word; ++j) {
    const __m512i mask =
        _mm512_set1_epi64(static_cast<long long>(kWordShiftMask[j]));
    const __m128i s = _mm_cvtsi32_si128(static_cast<int>(1u << j));
    xs[j] = _mm512_or_si512(_mm512_and_si512(_mm512_srl_epi64(word, s), mask),
                            _mm512_sll_epi64(_mm512_and_si512(word, mask), s));
  }
  for (unsigned j = 6; j < n; ++j) {
    const std::size_t stride = std::size_t{1} << (j - 6);
    switch (stride) {
      case 1:
        xs[j] = _mm512_permutexvar_epi64(
            _mm512_setr_epi64(1, 0, 3, 2, 5, 4, 7, 6), word);
        break;
      case 2:
        xs[j] = _mm512_permutexvar_epi64(
            _mm512_setr_epi64(2, 3, 0, 1, 6, 7, 4, 5), word);
        break;
      case 4:
        xs[j] = _mm512_permutexvar_epi64(
            _mm512_setr_epi64(4, 5, 6, 7, 0, 1, 2, 3), word);
        break;
      default:
        xs[j] = _mm512_loadu_si512(src + (w ^ stride));
        break;
    }
  }
  __m512i plane[kPlanes] = {_mm512_setzero_si512(), _mm512_setzero_si512(),
                            _mm512_setzero_si512(), _mm512_setzero_si512(),
                            _mm512_setzero_si512()};
  unsigned j = 0;
  for (; j + 8 <= n; j += 8) add8_512(plane, xs + j);
  for (; j < n; ++j) add_one512(plane, xs[j]);
  for (unsigned p = 0; p < kPlanes; ++p)
    _mm512_storeu_si512(out[p], plane[p]);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // RDC_SIMD_X86

/// Stores the low `count` bytes of `bytes` at `dst` (one store on
/// little-endian targets when a full group of 8 is written).
inline void store_count_bytes(std::uint8_t* dst, std::uint64_t bytes,
                              unsigned count) {
  if constexpr (std::endian::native == std::endian::little) {
    if (count == 8) {
      std::memcpy(dst, &bytes, 8);
      return;
    }
  }
  for (unsigned k = 0; k < count; ++k) {
    dst[k] = static_cast<std::uint8_t>(bytes & 0xFF);
    bytes >>= 8;
  }
}

}  // namespace

NeighborTable::NeighborTable(const TernaryTruthTable& f)
    : num_inputs_(f.num_inputs()),
      on_(new std::uint8_t[f.size()]),
      off_(new std::uint8_t[f.size()]),
      dc_(new std::uint8_t[f.size()]) {
  obs::count(obs::Counter::kNeighborTableBuilds);
  exec::fault_point(exec::FaultSite::kNeighbor);
  const unsigned n = num_inputs_;
  const std::uint64_t* on = f.on_bits().data();
  const std::uint64_t* dc = f.dc_bits().data();
  const std::size_t words = f.on_bits().num_words();
  const std::uint32_t size = f.size();
  const unsigned in_word = n < 6 ? n : 6;

  // Transposes one word's planes into the count arrays, 8 minterms per
  // step; the off-counts follow by byte-parallel subtraction (counts <= 31
  // never borrow across bytes). Shared epilogue of all build paths.
  const auto store_word = [&](std::size_t w, const std::uint64_t* on_planes,
                              const std::uint64_t* dc_planes) {
    const std::uint32_t base = static_cast<std::uint32_t>(w << 6);
    const unsigned limit = size - base < 64 ? size - base : 64u;
    const std::uint64_t n_bytes = n * kLowBytes;
    std::uint64_t on_bytes[8];
    std::uint64_t dc_bytes[8];
    transpose_planes(on_planes, on_bytes);
    transpose_planes(dc_planes, dc_bytes);
    for (unsigned g = 0; 8 * g < limit; ++g) {
      const std::uint64_t off_bytes = n_bytes - on_bytes[g] - dc_bytes[g];
      const unsigned stop = limit - 8 * g < 8 ? limit - 8 * g : 8u;
      store_count_bytes(on_.get() + base + 8 * g, on_bytes[g], stop);
      store_count_bytes(dc_.get() + base + 8 * g, dc_bytes[g], stop);
      store_count_bytes(off_.get() + base + 8 * g, off_bytes, stop);
    }
  };

#if RDC_SIMD_X86
  // Vector block paths. Budget polls stay one exec::checkpoint() per
  // 64-minterm word in every path, so checkpoint counts — and therefore
  // budget-trip behavior — are backend-invariant (the contract the batch
  // budget tests pin down).
  const simd::Backend backend = simd::active_backend();
  if (backend == simd::Backend::kAvx512 && words >= 8) {
    for (std::size_t w = 0; w < words; w += 8) {
      for (unsigned i = 0; i < 8; ++i) exec::checkpoint();
      std::uint64_t on_planes[kPlanes][8];
      std::uint64_t dc_planes[kPlanes][8];
      accumulate_block_avx512(on, w, n, on_planes);
      accumulate_block_avx512(dc, w, n, dc_planes);
      for (unsigned i = 0; i < 8; ++i) {
        std::uint64_t po[kPlanes];
        std::uint64_t pd[kPlanes];
        for (unsigned p = 0; p < kPlanes; ++p) {
          po[p] = on_planes[p][i];
          pd[p] = dc_planes[p][i];
        }
        store_word(w + i, po, pd);
      }
    }
    return;
  }
  if (backend != simd::Backend::kScalar && words >= 4) {
    for (std::size_t w = 0; w < words; w += 4) {
      for (unsigned i = 0; i < 4; ++i) exec::checkpoint();
      std::uint64_t on_planes[kPlanes][4];
      std::uint64_t dc_planes[kPlanes][4];
      accumulate_block_avx2(on, w, n, on_planes);
      accumulate_block_avx2(dc, w, n, dc_planes);
      for (unsigned i = 0; i < 4; ++i) {
        std::uint64_t po[kPlanes];
        std::uint64_t pd[kPlanes];
        for (unsigned p = 0; p < kPlanes; ++p) {
          po[p] = on_planes[p][i];
          pd[p] = dc_planes[p][i];
        }
        store_word(w + i, po, pd);
      }
    }
    return;
  }
#endif

  // Per word: sum the n neighbor permutations of each membership bitset —
  // bit m of the permuted word says whether minterm m's neighbor along pin
  // j is in the set. For j < 6 the permutation stays inside the word; for
  // j >= 6 the neighbor word is the word at index w ^ 2^(j-6). The n
  // permuted words are gathered once, then reduced in branchless
  // Harley-Seal blocks of 8 (ripple remainder).
  const auto accumulate = [&](WordCounter& counter, const std::uint64_t* src,
                              std::size_t w) {
    std::uint64_t xs[TernaryTruthTable::kMaxInputs];
    const std::uint64_t word = src[w];
    for (unsigned j = 0; j < in_word; ++j)
      xs[j] = word_neighbor_shift(word, j);
    for (unsigned j = 6; j < n; ++j)
      xs[j] = src[w ^ (std::size_t{1} << (j - 6))];
    unsigned j = 0;
    for (; j + 8 <= n; j += 8) counter.add8(xs + j);
    for (; j < n; ++j) counter.add(xs[j]);
  };

  for (std::size_t w = 0; w < words; ++w) {
    exec::checkpoint();  // per-64-minterm-word budget poll (DESIGN.md §10)
    WordCounter on_counter;
    WordCounter dc_counter;
    accumulate(on_counter, on, w);
    accumulate(dc_counter, dc, w);
    store_word(w, on_counter.plane, dc_counter.plane);
  }
}

void NeighborTable::same_phase_neighbors(const TernaryTruthTable& f,
                                         std::span<std::uint8_t> out) const {
  assert(out.size() == f.size());
  const std::uint64_t* on = f.on_bits().data();
  const std::uint64_t* dc = f.dc_bits().data();
  for (std::uint32_t m = 0; m < f.size(); ++m) {
    const bool is_on = (on[m >> 6] >> (m & 63)) & 1;
    const bool is_dc = (dc[m >> 6] >> (m & 63)) & 1;
    out[m] = is_on ? on_[m] : is_dc ? dc_[m] : off_[m];
  }
}

}  // namespace rdc
