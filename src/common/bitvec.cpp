#include "common/bitvec.hpp"

#include "common/simd.hpp"

namespace rdc {

void BitVec::fill() {
  if (words_.empty()) return;
  words_.assign(words_.size(), ~0ull);
  words_.back() = tail_mask();
}

BitVec& BitVec::operator&=(const BitVec& o) {
  assert(num_bits_ == o.num_bits_);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= o.words_[w];
  return *this;
}

BitVec& BitVec::operator|=(const BitVec& o) {
  assert(num_bits_ == o.num_bits_);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= o.words_[w];
  return *this;
}

BitVec& BitVec::operator^=(const BitVec& o) {
  assert(num_bits_ == o.num_bits_);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] ^= o.words_[w];
  return *this;
}

BitVec& BitVec::and_not(const BitVec& o) {
  assert(num_bits_ == o.num_bits_);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= ~o.words_[w];
  return *this;
}

BitVec BitVec::complement() const {
  BitVec result(num_bits_);
  for (std::size_t w = 0; w < words_.size(); ++w)
    result.words_[w] = ~words_[w];
  if (!result.words_.empty()) result.words_.back() &= tail_mask();
  return result;
}

BitVec BitVec::neighbor_shift(unsigned j) const {
  assert((2ull << j) <= num_bits_);
  BitVec result(num_bits_);
  if (j < 6) {
    for (std::size_t w = 0; w < words_.size(); ++w)
      result.words_[w] = word_neighbor_shift(words_[w], j);
  } else {
    const std::size_t stride = std::size_t{1} << (j - 6);
    for (std::size_t base = 0; base < words_.size(); base += 2 * stride) {
      for (std::size_t i = 0; i < stride; ++i) {
        result.words_[base + i] = words_[base + i + stride];
        result.words_[base + i + stride] = words_[base + i];
      }
    }
  }
  return result;
}

BitVec BitVec::shift_xor_neighbors(unsigned j) const {
  assert((2ull << j) <= num_bits_);
  BitVec result(num_bits_);
  simd::shift_xor(result.data(), words_.data(), words_.size(), j);
  return result;
}

BitVec BitVec::xor_permute(std::uint32_t mask) const {
  // In-word part in one pass: the masked-shift permutations for different
  // j < 6 commute, so their composition is applied word by word.
  const unsigned low = mask & 63u;
  BitVec result(num_bits_);
  const std::uint32_t high = mask >> 6;
  if (high == 0) {
    result.words_ = words_;
  } else {
    // Word part: word w of the result is word w ^ high of the source.
    for (std::size_t w = 0; w < words_.size(); ++w)
      result.words_[w] = words_[w ^ high];
  }
  if (low != 0) {
    for (std::uint64_t& word : result.words_) {
      std::uint64_t v = word;
      for (unsigned j = 0; j < 6; ++j)
        if (low & (1u << j)) v = word_neighbor_shift(v, j);
      word = v;
    }
  }
  return result;
}

std::uint64_t popcount_and(const BitVec& a, const BitVec& b) {
  assert(a.size() == b.size());
  return simd::popcount_and(a.data(), b.data(), a.num_words());
}

std::uint64_t popcount_xor_and(const BitVec& a, const BitVec& b,
                               const BitVec& c) {
  assert(a.size() == b.size() && a.size() == c.size());
  return simd::popcount_xor_and(a.data(), b.data(), c.data(), a.num_words());
}

}  // namespace rdc
