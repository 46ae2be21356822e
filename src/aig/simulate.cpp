#include "aig/simulate.hpp"

#include <stdexcept>

#include "common/bits.hpp"

namespace rdc {

AigSimulator::AigSimulator(const Aig& aig) : aig_(aig) {
  const unsigned n = aig.num_inputs();
  if (n > TernaryTruthTable::kMaxInputs)
    throw std::invalid_argument("AigSimulator: too many inputs");
  num_vectors_ = num_minterms(n);
  words_ = (num_vectors_ + 63) / 64;
  tables_.resize(aig.num_nodes(), SimWords(words_, 0));

  for (unsigned i = 0; i < n; ++i)
    for (std::size_t w = 0; w < words_; ++w)
      tables_[1 + i][w] = input_pattern(i, w);

  for (std::uint32_t node = n + 1; node < aig.num_nodes(); ++node) {
    const std::uint32_t f0 = aig.fanin0(node);
    const std::uint32_t f1 = aig.fanin1(node);
    const SimWords& t0 = tables_[aiglit::node_of(f0)];
    const SimWords& t1 = tables_[aiglit::node_of(f1)];
    const std::uint64_t inv0 = aiglit::is_complemented(f0) ? ~0ull : 0ull;
    const std::uint64_t inv1 = aiglit::is_complemented(f1) ? ~0ull : 0ull;
    SimWords& out = tables_[node];
    for (std::size_t w = 0; w < words_; ++w)
      out[w] = (t0[w] ^ inv0) & (t1[w] ^ inv1);
  }
}

SimWords AigSimulator::literal_table(std::uint32_t lit) const {
  SimWords t = tables_[aiglit::node_of(lit)];
  if (aiglit::is_complemented(lit))
    for (auto& w : t) w = ~w;
  // Mask unused tail bits so popcounts stay exact.
  t.back() &= sim_word_mask(aig_.num_inputs());
  return t;
}

bool AigSimulator::literal_value(std::uint32_t lit,
                                 std::uint32_t minterm) const {
  const SimWords& t = tables_[aiglit::node_of(lit)];
  const bool v = (t[minterm >> 6] >> (minterm & 63)) & 1u;
  return v != aiglit::is_complemented(lit);
}

TernaryTruthTable AigSimulator::output_table(unsigned o) const {
  const std::uint32_t lit = aig_.outputs().at(o);
  TernaryTruthTable tt(aig_.num_inputs());
  for (std::uint32_t m = 0; m < num_vectors_; ++m)
    if (literal_value(lit, m)) tt.set_phase(m, Phase::kOne);
  return tt;
}

}  // namespace rdc
