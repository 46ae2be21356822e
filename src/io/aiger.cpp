#include "io/aiger.hpp"

#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace rdc {

void write_aiger(const Aig& aig, std::ostream& out) {
  // Our literal encoding (2*node + complement, node 0 = constant false,
  // inputs at nodes 1..I) coincides with AIGER's variable numbering.
  const std::size_t max_var = aig.num_nodes() - 1;
  const std::size_t num_ands = aig.num_ands();
  out << "aag " << max_var << " " << aig.num_inputs() << " 0 "
      << aig.outputs().size() << " " << num_ands << "\n";
  for (unsigned i = 0; i < aig.num_inputs(); ++i)
    out << aig.input_literal(i) << "\n";
  for (const std::uint32_t o : aig.outputs()) out << o << "\n";
  for (std::uint32_t node = aig.num_inputs() + 1; node < aig.num_nodes();
       ++node) {
    std::uint32_t rhs0 = aig.fanin0(node);
    std::uint32_t rhs1 = aig.fanin1(node);
    if (rhs0 < rhs1) std::swap(rhs0, rhs1);  // AIGER wants rhs0 >= rhs1
    out << aiglit::make(node, false) << " " << rhs0 << " " << rhs1 << "\n";
  }
}

namespace {

/// All header counts and literals are parsed through this checked reader:
/// a stream extraction into an unsigned type silently wraps "-5" into a
/// huge value, which previously turned a hostile header into a
/// multi-gigabyte allocation. Rejecting negatives and enforcing per-field
/// caps keeps a malformed document a parse error, never an OOM.
std::uint64_t read_count(std::istream& in, const char* what,
                         std::uint64_t max) {
  long long value = 0;
  if (!(in >> value))
    throw std::runtime_error(std::string("aiger: malformed ") + what);
  if (value < 0)
    throw std::runtime_error(std::string("aiger: negative ") + what);
  if (static_cast<std::uint64_t>(value) > max)
    throw std::runtime_error(std::string("aiger: ") + what +
                             " exceeds limit of " + std::to_string(max));
  return static_cast<std::uint64_t>(value);
}

/// Caps sized so the literal map stays a few tens of MB at worst.
constexpr std::uint64_t kMaxAigerVars = 1ull << 22;
constexpr std::uint64_t kMaxAigerOutputs = 1ull << 20;

}  // namespace

Aig parse_aiger(std::istream& in) {
  std::string magic;
  if (!(in >> magic)) throw std::runtime_error("aiger: malformed header");
  if (magic != "aag")
    throw std::runtime_error("aiger: expected ascii 'aag', got " + magic);
  const std::uint64_t max_var = read_count(in, "max var", kMaxAigerVars);
  const std::uint64_t num_inputs = read_count(in, "input count", max_var);
  const std::uint64_t num_latches = read_count(in, "latch count", max_var);
  const std::uint64_t num_outputs =
      read_count(in, "output count", kMaxAigerOutputs);
  const std::uint64_t num_ands = read_count(in, "and count", max_var);
  if (num_latches != 0)
    throw std::runtime_error("aiger: latches are not supported");
  if (max_var + 1 < 1 + num_inputs + num_ands)
    throw std::runtime_error("aiger: inconsistent variable count");

  Aig aig(static_cast<unsigned>(num_inputs));

  const std::uint64_t max_literal = 2 * max_var + 1;
  for (std::size_t i = 0; i < num_inputs; ++i) {
    const std::uint64_t lit = read_count(in, "input literal", max_literal);
    if (lit != 2 * (i + 1))
      throw std::runtime_error("aiger: non-contiguous input literals");
  }

  std::vector<std::uint32_t> output_lits(num_outputs);
  for (auto& lit : output_lits)
    lit = static_cast<std::uint32_t>(
        read_count(in, "output literal", max_literal));

  // Old literal -> rebuilt literal. Strashing may fold redundant rows, so
  // references go through the map rather than assuming stable numbering.
  constexpr std::uint32_t kUndefined = 0xFFFFFFFFu;
  std::vector<std::uint32_t> map(2 * (max_var + 1), kUndefined);
  map[0] = aiglit::kFalse;
  map[1] = aiglit::kTrue;
  for (std::size_t i = 0; i < num_inputs; ++i) {
    const std::uint32_t lit = static_cast<std::uint32_t>(2 * (i + 1));
    map[lit] = aig.input_literal(static_cast<unsigned>(i));
    map[lit + 1] = aiglit::negate(map[lit]);
  }
  auto mapped = [&](std::uint32_t lit) {
    if (lit >= map.size() || map[lit] == kUndefined)
      throw std::runtime_error("aiger: reference to undefined literal " +
                               std::to_string(lit));
    return map[lit];
  };

  for (std::size_t a = 0; a < num_ands; ++a) {
    const auto lhs = static_cast<std::uint32_t>(
        read_count(in, "and literal", max_literal));
    const auto rhs0 = static_cast<std::uint32_t>(
        read_count(in, "and literal", max_literal));
    const auto rhs1 = static_cast<std::uint32_t>(
        read_count(in, "and literal", max_literal));
    if (lhs % 2 != 0 || lhs <= rhs0 || rhs0 < rhs1)
      throw std::runtime_error("aiger: invalid and-gate ordering");
    const std::uint32_t lit = aig.make_and(mapped(rhs0), mapped(rhs1));
    map[lhs] = lit;
    map[lhs + 1] = aiglit::negate(lit);
  }

  for (const std::uint32_t lit : output_lits) aig.add_output(mapped(lit));
  return aig;
}

Aig parse_aiger_string(const std::string& text) {
  std::istringstream in(text);
  return parse_aiger(in);
}

}  // namespace rdc
