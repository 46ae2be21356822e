// Bit-manipulation helpers shared across rdcsyn.
//
// Minterms of an n-input Boolean function are identified with unsigned
// integers in [0, 2^n); bit j of the index is the value of input x_j.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace rdc {

/// Number of minterms of an n-input function. Valid for n <= 30.
constexpr std::uint32_t num_minterms(unsigned n) {
  assert(n <= 30);
  return 1u << n;
}

/// Hamming distance between two minterm indices.
constexpr unsigned hamming_distance(std::uint32_t a, std::uint32_t b) {
  return static_cast<unsigned>(std::popcount(a ^ b));
}

/// The 1-Hamming-distance neighbor of `m` obtained by flipping input `bit`.
constexpr std::uint32_t flip_bit(std::uint32_t m, unsigned bit) {
  return m ^ (1u << bit);
}

/// True iff `m` has input `bit` set to 1.
constexpr bool test_bit(std::uint32_t m, unsigned bit) {
  return (m >> bit) & 1u;
}

/// Word `word` of input `input`'s truth table, for simulating 64 input
/// vectors per machine word (bit b of word w is minterm 64*w + b): the
/// classic patterns 0101..., 0011..., ... for inputs < 6, and for inputs
/// >= 6 all-ones or all-zeros by bit (input - 6) of the word index.
constexpr std::uint64_t input_pattern(unsigned input, std::size_t word) {
  constexpr std::uint64_t kPatterns[6] = {
      0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
      0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
  if (input < 6) return kPatterns[input];
  return (word >> (input - 6)) & 1u ? ~0ull : 0ull;
}

/// Mask of the bits of a simulation word that are input vectors of an
/// n-input function: the low 2^n bits when n < 6, else all 64.
constexpr std::uint64_t sim_word_mask(unsigned n) {
  return n < 6 ? (1ull << num_minterms(n)) - 1 : ~0ull;
}

}  // namespace rdc
