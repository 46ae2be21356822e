// Word-parallel packed bitsets — the shared kernel layer under every
// reliability metric in the paper.
//
// All per-minterm algorithms (exact error rates, neighbor-majority ranking,
// complexity factors) are 1-Hamming-distance neighborhood computations over
// the 2^n minterm lattice. A BitVec stores one bit per minterm packed into
// 64-bit words, so set algebra (AND/OR/XOR/ANDNOT), cardinalities
// (popcount) and — crucially — the distance-1 neighbor permutation along an
// input all run 64 minterms per instruction instead of one.
//
// The neighbor permutation along input j maps bit m to bit m ^ (1 << j):
//  * j < 6 moves bits inside a word: a masked shift pair
//    ((w >> 2^j) & mask_j) | ((w & mask_j) << 2^j) with the classic
//    interleaved masks (0x5555..., 0x3333..., ...);
//  * j >= 6 moves whole words: swap words at stride 2^(j-6).
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace rdc {

/// Packed bitset with word-level set algebra and the 1-Hamming-distance
/// neighbor permutation over a 2^n index lattice.
///
/// Invariant: bits at positions >= size() in the last word are zero; every
/// member operation preserves this.
class BitVec {
 public:
  BitVec() = default;

  /// All-zero bitset of `num_bits` bits.
  explicit BitVec(std::uint64_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) >> 6, 0) {}

  std::uint64_t size() const { return num_bits_; }
  std::size_t num_words() const { return words_.size(); }

  const std::uint64_t* data() const { return words_.data(); }
  std::uint64_t* data() { return words_.data(); }
  std::uint64_t word(std::size_t w) const { return words_[w]; }

  bool get(std::uint64_t i) const {
    assert(i < num_bits_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::uint64_t i, bool v) {
    assert(i < num_bits_);
    const std::uint64_t mask = 1ull << (i & 63);
    if (v)
      words_[i >> 6] |= mask;
    else
      words_[i >> 6] &= ~mask;
  }

  void clear() { words_.assign(words_.size(), 0); }

  /// Sets every bit (respecting the tail invariant).
  void fill();

  /// Number of set bits. O(words).
  std::uint64_t count() const {
    std::uint64_t total = 0;
    for (const std::uint64_t w : words_) total += std::popcount(w);
    return total;
  }

  bool operator==(const BitVec& other) const = default;

  BitVec& operator&=(const BitVec& o);
  BitVec& operator|=(const BitVec& o);
  BitVec& operator^=(const BitVec& o);
  /// *this &= ~o (set difference).
  BitVec& and_not(const BitVec& o);

  /// Bitwise complement within the first size() bits.
  BitVec complement() const;

  /// The distance-1 neighbor permutation along input `j`: bit m of the
  /// result is bit m ^ (1 << j) of *this. Requires 2^(j+1) <= size().
  BitVec neighbor_shift(unsigned j) const;

  /// XOR of a bitset with its neighbor permutation along `j`: bit m is
  /// get(m) ^ get(m ^ (1 << j)) — exactly the per-minterm "does the value
  /// change when input j flips" predicate of the error model.
  BitVec shift_xor_neighbors(unsigned j) const;

  /// Generalized permutation by an arbitrary flip mask: bit m of the result
  /// is bit m ^ mask of *this (composition of the per-bit involutions,
  /// which commute). Used by the k-bit error-rate kernels.
  BitVec xor_permute(std::uint32_t mask) const;

  /// Calls `fn(index)` for every set bit, in increasing index order.
  template <typename Fn>
  void for_each_set(Fn fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const unsigned tz = static_cast<unsigned>(std::countr_zero(bits));
        fn((static_cast<std::uint64_t>(w) << 6) | tz);
        bits &= bits - 1;
      }
    }
  }

 private:
  /// Mask of the valid bits in the last word (all ones iff size() is a
  /// multiple of 64 or the vector is empty).
  std::uint64_t tail_mask() const {
    const unsigned rem = static_cast<unsigned>(num_bits_ & 63);
    return rem == 0 ? ~0ull : (1ull << rem) - 1;
  }

  std::uint64_t num_bits_ = 0;
  std::vector<std::uint64_t> words_;
};

/// mask_j selects the bits whose lattice index has input j == 0, for j < 6:
/// 0x5555... (j=0), 0x3333... (j=1), ..., 0x00000000FFFFFFFF (j=5).
inline constexpr std::uint64_t kWordShiftMask[6] = {
    0x5555555555555555ull, 0x3333333333333333ull, 0x0F0F0F0F0F0F0F0Full,
    0x00FF00FF00FF00FFull, 0x0000FFFF0000FFFFull, 0x00000000FFFFFFFFull,
};

/// In-word part of the neighbor permutation: applies bit m -> bit m ^ (1<<j)
/// to one 64-bit word, for j < 6. The building block of
/// BitVec::neighbor_shift and of register-resident kernels that walk words
/// themselves (e.g. the NeighborTable construction).
inline std::uint64_t word_neighbor_shift(std::uint64_t word, unsigned j) {
  assert(j < 6);
  const std::uint64_t mask = kWordShiftMask[j];
  const unsigned s = 1u << j;
  return ((word >> s) & mask) | ((word & mask) << s);
}

/// popcount(a & b) without materializing the intersection.
std::uint64_t popcount_and(const BitVec& a, const BitVec& b);
/// popcount((a ^ b) & c) without temporaries — the inner loop of the
/// word-parallel exact error rate.
std::uint64_t popcount_xor_and(const BitVec& a, const BitVec& b,
                               const BitVec& c);

}  // namespace rdc
