#include "tt/ternary_function.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace rdc {

char phase_char(Phase p) {
  switch (p) {
    case Phase::kZero:
      return '0';
    case Phase::kOne:
      return '1';
    case Phase::kDc:
      return '-';
  }
  return '?';
}

TernaryTruthTable::TernaryTruthTable(unsigned num_inputs)
    : num_inputs_(num_inputs) {
  if (num_inputs > kMaxInputs) {
    throw std::invalid_argument(
        "TernaryTruthTable supports at most 20 inputs");
  }
  on_ = BitVec(size());
  dc_ = BitVec(size());
}

void TernaryTruthTable::set_phase(std::uint32_t minterm, Phase p) {
  assert(minterm < size());
  on_.set(minterm, p == Phase::kOne);
  dc_.set(minterm, p == Phase::kDc);
}

std::vector<std::uint32_t> TernaryTruthTable::dc_minterms() const {
  std::vector<std::uint32_t> result;
  result.reserve(dc_count());
  dc_.for_each_set([&](std::uint64_t m) {
    result.push_back(static_cast<std::uint32_t>(m));
  });
  return result;
}

TernaryTruthTable TernaryTruthTable::with_all_dc_assigned(Phase p) const {
  assert(p != Phase::kDc);
  TernaryTruthTable result = *this;
  if (p == Phase::kOne) result.on_ |= result.dc_;
  result.dc_.clear();
  return result;
}

std::string TernaryTruthTable::to_string() const {
  std::string s;
  s.reserve(size());
  for (std::uint32_t m = 0; m < size(); ++m) s.push_back(phase_char(phase(m)));
  return s;
}

}  // namespace rdc
