#include "oracles/ranking_incremental.hpp"

#include <cmath>
#include <cstdint>
#include <queue>
#include <vector>

#include "common/bits.hpp"

namespace rdc::oracle {

AssignmentResult ranking_assign_incremental(TernaryTruthTable& f,
                                            double fraction,
                                            const NeighborTable& neighbors) {
  AssignmentResult result;
  result.dc_before = f.dc_count();

  // Max-heap with lazy revalidation: entries carry the weight they were
  // pushed with; stale entries (weight changed since) are re-pushed.
  struct Entry {
    unsigned weight;
    std::uint32_t minterm;
    bool operator<(const Entry& other) const {
      if (weight != other.weight) return weight < other.weight;
      return minterm > other.minterm;  // prefer smaller index on ties
    }
  };

  // Per-minterm on/off neighbor counts, kept current as DCs get assigned.
  std::vector<NeighborCounts> counts(f.size());
  for (std::uint32_t m = 0; m < f.size(); ++m) counts[m] = neighbors.at(m);
  auto weight = [&](std::uint32_t m) {
    const NeighborCounts& c = counts[m];
    return c.on > c.off ? unsigned{c.on} - c.off : unsigned{c.off} - c.on;
  };

  std::priority_queue<Entry> heap;
  std::size_t ranked = 0;
  for (std::uint32_t m : f.dc_minterms())
    if (weight(m) != 0) {
      heap.push({weight(m), m});
      ++ranked;
    }
  const std::size_t budget = static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(ranked)));

  std::size_t assigned = 0;
  while (assigned < budget && !heap.empty()) {
    const Entry top = heap.top();
    heap.pop();
    if (!f.is_dc(top.minterm)) continue;  // already assigned
    const unsigned w = weight(top.minterm);
    if (w == 0) continue;  // majority vanished; drop per Fig. 3's filter
    if (w != top.weight) {
      heap.push({w, top.minterm});  // stale entry: reinsert with fresh weight
      continue;
    }
    const bool to_on = counts[top.minterm].on > counts[top.minterm].off;
    f.set_phase(top.minterm, to_on ? Phase::kOne : Phase::kZero);
    ++assigned;
    ++result.assigned;
    if (to_on) ++result.assigned_on;
    for (unsigned j = 0; j < f.num_inputs(); ++j) {
      const std::uint32_t nbr = flip_bit(top.minterm, j);
      ++(to_on ? counts[nbr].on : counts[nbr].off);
      if (f.is_dc(nbr) && weight(nbr) != 0) heap.push({weight(nbr), nbr});
    }
  }
  return result;
}

}  // namespace rdc::oracle
