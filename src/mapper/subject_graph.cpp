#include "mapper/subject_graph.hpp"

#include <array>
#include <stdexcept>
#include <utility>

namespace rdc {
namespace {

using aiglit::is_complemented;
using aiglit::negate;
using aiglit::node_of;

/// True iff the edge can be absorbed into a pattern: it points, without
/// complement, at an AND node used nowhere else.
bool absorbable(const Aig& aig, std::uint32_t edge,
                const std::vector<unsigned>& fanout) {
  const std::uint32_t child = node_of(edge);
  return !is_complemented(edge) && aig.is_and(child) && fanout[child] == 1;
}

/// Same, but for edges that must be complemented (the !(...) input of
/// AOI/OAI/XOR shapes).
bool absorbable_negated(const Aig& aig, std::uint32_t edge,
                        const std::vector<unsigned>& fanout) {
  const std::uint32_t child = node_of(edge);
  return is_complemented(edge) && aig.is_and(child) && fanout[child] == 1;
}

/// At most eight frontiers exist: the cuts of 2..4 leaves below a node's
/// two edges number 1 + 2 + 5 (Catalan counts of the split shapes).
constexpr std::size_t kMaxFrontiers = 8;

struct Frontiers {
  std::array<CellPins, kMaxFrontiers> sets;
  std::size_t count = 0;
};

/// Enumerates conjunction leaf-sets of size 2..4 rooted at `node`, expanding
/// only absorbable edges. Produces each distinct frontier once.
void conjunction_frontiers(const Aig& aig, const std::vector<unsigned>& fanout,
                           const CellPins& frontier, std::size_t next,
                           Frontiers& out) {
  if (next == frontier.size()) {
    if (out.count == kMaxFrontiers)
      throw std::logic_error("conjunction_frontiers: frontier bound exceeded");
    out.sets[out.count++] = frontier;
    return;
  }
  // Option 1: keep frontier[next] as a leaf.
  conjunction_frontiers(aig, fanout, frontier, next + 1, out);
  // Option 2: expand it, if possible and within the 4-leaf budget.
  if (frontier.size() < CellPins::kCapacity &&
      absorbable(aig, frontier[next], fanout)) {
    const std::uint32_t child = node_of(frontier[next]);
    CellPins expanded = frontier;
    expanded[next] = aig.fanin0(child);
    expanded.insert(next + 1, aig.fanin1(child));
    conjunction_frontiers(aig, fanout, expanded, next, out);
  }
}

void add_conjunction_matches(const CellPins& leaves,
                             std::vector<Match>& matches) {
  CellPins negated = leaves;
  for (std::uint32_t& l : negated) l = negate(l);
  switch (leaves.size()) {
    case 2:
      matches.push_back({CellKind::kAnd2, false, leaves});
      matches.push_back({CellKind::kNand2, true, leaves});
      matches.push_back({CellKind::kNor2, false, negated});
      matches.push_back({CellKind::kOr2, true, negated});
      break;
    case 3:
      matches.push_back({CellKind::kAnd3, false, leaves});
      matches.push_back({CellKind::kNand3, true, leaves});
      matches.push_back({CellKind::kNor3, false, negated});
      matches.push_back({CellKind::kOr3, true, negated});
      break;
    case 4:
      matches.push_back({CellKind::kAnd4, false, leaves});
      matches.push_back({CellKind::kNand4, true, leaves});
      break;
    default:
      break;
  }
}

}  // namespace

void enumerate_matches(const Aig& aig, std::uint32_t node,
                       const std::vector<unsigned>& fanout,
                       std::vector<Match>& matches) {
  matches.clear();
  const std::uint32_t e0 = aig.fanin0(node);
  const std::uint32_t e1 = aig.fanin1(node);

  // Plain conjunctions: AND/NAND/OR/NOR families over 2..4 leaves.
  Frontiers frontiers;
  conjunction_frontiers(aig, fanout, {e0, e1}, 0, frontiers);
  // In ascending order, each distinct frontier once (an insertion sort:
  // there are at most kMaxFrontiers).
  std::array<CellPins, kMaxFrontiers>& sets = frontiers.sets;
  for (std::size_t i = 1; i < frontiers.count; ++i)
    for (std::size_t j = i; j > 0 && sets[j] < sets[j - 1]; --j)
      std::swap(sets[j], sets[j - 1]);
  for (std::size_t i = 0; i < frontiers.count; ++i)
    if (i == 0 || sets[i] != sets[i - 1])
      add_conjunction_matches(sets[i], matches);

  // AOI21 / OAI21: N = AND(!g, x) with g = AND(a, b).
  for (const auto& [g_edge, x] : {std::pair{e0, e1}, std::pair{e1, e0}}) {
    if (!absorbable_negated(aig, g_edge, fanout)) continue;
    const std::uint32_t g = node_of(g_edge);
    const std::uint32_t a = aig.fanin0(g);
    const std::uint32_t b = aig.fanin1(g);
    // N = !(a*b) * x = !(a*b + !x)  -> AOI21(a, b, !x), positive polarity.
    matches.push_back({CellKind::kAoi21, false, {a, b, negate(x)}});
    // !N = !(( !a + !b ) * x) -> OAI21(!a, !b, x), negative polarity.
    matches.push_back({CellKind::kOai21, true, {negate(a), negate(b), x}});
  }

  // AOI22 / OAI22 / XOR / XNOR: N = AND(!g1, !g2), both g AND nodes.
  if (absorbable_negated(aig, e0, fanout) &&
      absorbable_negated(aig, e1, fanout)) {
    const std::uint32_t g1 = node_of(e0);
    const std::uint32_t g2 = node_of(e1);
    const std::uint32_t a = aig.fanin0(g1);
    const std::uint32_t b = aig.fanin1(g1);
    const std::uint32_t c = aig.fanin0(g2);
    const std::uint32_t d = aig.fanin1(g2);
    // N = !(ab) * !(cd) = !(ab + cd) -> AOI22, positive polarity.
    matches.push_back({CellKind::kAoi22, false, {a, b, c, d}});
    // !N = !((!a + !b) * (!c + !d)) -> OAI22, negative polarity.
    matches.push_back(
        {CellKind::kOai22, true, {negate(a), negate(b), negate(c), negate(d)}});
    // XOR shape: g2 = AND(!a, !b) (in either order) makes N = XOR(a, b).
    const bool straight = (c == negate(a) && d == negate(b));
    const bool swapped = (c == negate(b) && d == negate(a));
    if (straight || swapped) {
      matches.push_back({CellKind::kXor2, false, {a, b}});
      matches.push_back({CellKind::kXnor2, true, {a, b}});
    }
  }
}

}  // namespace rdc
