#include "reliability/assignment.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <queue>

#include "common/bits.hpp"
#include "obs/counters.hpp"
#include "reliability/complexity.hpp"
#include "tt/neighbor_stats.hpp"

namespace rdc {
namespace {

/// One DC the model's events favor a phase for: an entry of Fig. 3's
/// ranked list. 16 bytes, so ranking moves little memory.
struct Candidate {
  double weight = 0.0;  ///< |if_on - if_off|, the generalized majority weight
  std::uint32_t minterm = 0;
  bool to_on = false;   ///< the phase adding the smaller event mass
};

/// Fig. 3's ranked-list order: decreasing weight, ties by minterm index.
bool ranks_before(const Candidate& a, const Candidate& b) {
  return a.weight != b.weight ? a.weight > b.weight : a.minterm < b.minterm;
}

/// The paper's model, bitflip(1): its events are the neighbor counts.
const reliability::FaultModel& paper_model() {
  static const std::unique_ptr<reliability::FaultModel> model =
      reliability::make_fault_model(reliability::FaultModelSpec());
  return *model;
}

/// The one decision core: the candidate list of `f`, in increasing minterm
/// order, from the model's events for its DCs. DCs with equal masses are
/// dropped unless `keep_ties` (then they go to the off-set, Fig. 7's
/// literal "else x <- 0"); `admit(m)` is asked only for the others.
template <typename Admit>
std::vector<Candidate> candidates(const TernaryTruthTable& f,
                                  const NeighborTable& neighbors,
                                  const reliability::FaultModel& model,
                                  bool keep_ties, Admit admit) {
  const std::vector<std::uint32_t> dcs = f.dc_minterms();
  const std::vector<reliability::MintermEvents> events =
      model.dc_assignment_events(f, dcs, neighbors);
  std::vector<Candidate> list;
  list.reserve(dcs.size());
  for (std::size_t i = 0; i < dcs.size(); ++i) {
    const double w = std::abs(events[i].if_on - events[i].if_off);
    if ((w > 0.0 || keep_ties) && admit(dcs[i]))
      list.push_back({w, dcs[i], events[i].if_on < events[i].if_off});
  }
  return list;
}

constexpr auto kAdmitAll = [](std::uint32_t) { return true; };

/// Assigns the first `count` DCs of the ranked list. Decisions are static,
/// so only which DCs rank in the top `count` matters, not the order they
/// are assigned in: a linear-time selection replaces Fig. 3's full sort.
AssignmentResult assign_top(TernaryTruthTable& f, std::vector<Candidate>& list,
                            std::size_t count) {
  AssignmentResult result;
  result.dc_before = f.dc_count();
  count = std::min(count, list.size());
  if (count < list.size())
    std::nth_element(list.begin(), list.begin() + count, list.end(),
                     ranks_before);
  for (std::size_t i = 0; i < count; ++i) {
    f.set_phase(list[i].minterm, list[i].to_on ? Phase::kOne : Phase::kZero);
    ++result.assigned;
    if (list[i].to_on) ++result.assigned_on;
  }
  return result;
}

AssignmentResult rank_and_assign(TernaryTruthTable& f, double fraction,
                                 const NeighborTable& neighbors,
                                 const reliability::FaultModel& model) {
  assert(fraction >= 0.0 && fraction <= 1.0);
  std::vector<Candidate> list =
      candidates(f, neighbors, model, false, kAdmitAll);
  // Fig. 3 assigns indices 0 .. fraction * DC_List.length.
  const auto count = static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(list.size())));
  const AssignmentResult result = assign_top(f, list, count);
  obs::count(obs::Counter::kDcRankingAssigned, result.assigned);
  return result;
}

AssignmentResult lcf_filter_and_assign(TernaryTruthTable& f, double threshold,
                                       bool assign_balanced,
                                       const NeighborTable& neighbors,
                                       const reliability::FaultModel& model) {
  // The LC^f gate measures spec structure, not the fault scenario. All
  // candidates are collected before any assignment, so LC^f and the events
  // of every DC are evaluated on the input specification (Fig. 7).
  std::vector<Candidate> list =
      candidates(f, neighbors, model, assign_balanced, [&](std::uint32_t m) {
        return local_complexity_factor(f, neighbors, m) < threshold;
      });
  const AssignmentResult result = assign_top(f, list, list.size());
  obs::count(obs::Counter::kDcLcfAssigned, result.assigned);
  return result;
}

template <typename Pass>
AssignmentResult for_each_output(IncompleteSpec& spec, Pass pass) {
  AssignmentResult total;
  for (unsigned o = 0; o < spec.num_outputs(); ++o) {
    const AssignmentResult r = pass(spec.output(o), o);
    total.dc_before += r.dc_before;
    total.assigned += r.assigned;
    total.assigned_on += r.assigned_on;
  }
  return total;
}

}  // namespace

AssignmentResult ranking_assign(TernaryTruthTable& f, double fraction) {
  return ranking_assign(f, fraction, NeighborTable(f));
}

AssignmentResult ranking_assign(TernaryTruthTable& f, double fraction,
                                const NeighborTable& neighbors) {
  return rank_and_assign(f, fraction, neighbors, paper_model());
}

AssignmentResult ranking_assign_count(TernaryTruthTable& f,
                                      std::uint32_t count) {
  return ranking_assign_count(f, count, NeighborTable(f));
}

AssignmentResult ranking_assign_count(TernaryTruthTable& f,
                                      std::uint32_t count,
                                      const NeighborTable& neighbors) {
  std::vector<Candidate> list =
      candidates(f, neighbors, paper_model(), false, kAdmitAll);
  return assign_top(f, list, count);
}

AssignmentResult ranking_assign_incremental(TernaryTruthTable& f,
                                            double fraction) {
  return ranking_assign_incremental(f, fraction, NeighborTable(f));
}

AssignmentResult ranking_assign_incremental(TernaryTruthTable& f,
                                            double fraction,
                                            const NeighborTable& neighbors) {
  assert(fraction >= 0.0 && fraction <= 1.0);
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
  // |on-neighbors - off-neighbors|, the Fig. 3 ranking weight.
  auto weight = [&](std::uint32_t m) {
    const NeighborCounts& c = counts[m];
    return c.on > c.off ? unsigned{c.on} - c.off : unsigned{c.off} - c.on;
  };

  std::priority_queue<Entry> heap;
  std::size_t ranked = 0;  // nonzero-weight DCs, the ranked-list length
  for (std::uint32_t m : f.dc_minterms())
    if (weight(m) != 0) {
      heap.push({weight(m), m});
      ++ranked;
    }

  // Budget mirrors the static variant: the ranked-list length at the start.
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
    // The assignment converts one DC neighbor of each adjacent minterm into
    // an on/off neighbor; requeue the still-unassigned neighbors whose
    // weight became non-zero.
    for (unsigned j = 0; j < f.num_inputs(); ++j) {
      const std::uint32_t nbr = flip_bit(top.minterm, j);
      ++(to_on ? counts[nbr].on : counts[nbr].off);
      if (f.is_dc(nbr) && weight(nbr) != 0) heap.push({weight(nbr), nbr});
    }
  }
  obs::count(obs::Counter::kDcIncrementalAssigned, result.assigned);
  return result;
}

AssignmentResult lcf_assign(TernaryTruthTable& f, double threshold,
                            bool assign_balanced) {
  return lcf_assign(f, threshold, assign_balanced, NeighborTable(f));
}

AssignmentResult lcf_assign(TernaryTruthTable& f, double threshold,
                            bool assign_balanced,
                            const NeighborTable& neighbors) {
  return lcf_filter_and_assign(f, threshold, assign_balanced, neighbors,
                               paper_model());
}

AssignmentResult ranking_assign(IncompleteSpec& spec, double fraction) {
  return for_each_output(spec, [&](TernaryTruthTable& f, unsigned) {
    return ranking_assign(f, fraction);
  });
}

AssignmentResult ranking_assign_incremental(IncompleteSpec& spec,
                                            double fraction) {
  return for_each_output(spec, [&](TernaryTruthTable& f, unsigned) {
    return ranking_assign_incremental(f, fraction);
  });
}

AssignmentResult ranking_assign_incremental(
    IncompleteSpec& spec, double fraction,
    std::span<const NeighborTable> tables) {
  assert(tables.size() == spec.num_outputs());
  return for_each_output(spec, [&](TernaryTruthTable& f, unsigned o) {
    return ranking_assign_incremental(f, fraction, tables[o]);
  });
}

AssignmentResult lcf_assign(IncompleteSpec& spec, double threshold,
                            bool assign_balanced) {
  return for_each_output(spec, [&](TernaryTruthTable& f, unsigned) {
    return lcf_assign(f, threshold, assign_balanced);
  });
}

AssignmentResult ranking_assign(IncompleteSpec& spec, double fraction,
                                std::span<const NeighborTable> tables,
                                const reliability::FaultModel& model) {
  assert(tables.size() == spec.num_outputs());
  return for_each_output(spec, [&](TernaryTruthTable& f, unsigned o) {
    return rank_and_assign(f, fraction, tables[o], model);
  });
}

AssignmentResult lcf_assign(IncompleteSpec& spec, double threshold,
                            bool assign_balanced,
                            std::span<const NeighborTable> tables,
                            const reliability::FaultModel& model) {
  assert(tables.size() == spec.num_outputs());
  return for_each_output(spec, [&](TernaryTruthTable& f, unsigned o) {
    return lcf_filter_and_assign(f, threshold, assign_balanced, tables[o],
                                 model);
  });
}

}  // namespace rdc
