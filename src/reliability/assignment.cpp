#include "reliability/assignment.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <memory>
#include <vector>

#include "common/bits.hpp"
#include "common/bitvec.hpp"
#include "obs/counters.hpp"
#include "tt/neighbor_stats.hpp"

namespace rdc {
namespace {

/// Fig. 3's ranked-list order: decreasing weight, ties by minterm index.
bool ranks_before(const DcCandidate& a, const DcCandidate& b) {
  return a.weight != b.weight ? a.weight > b.weight : a.minterm < b.minterm;
}

/// The paper's model, bitflip(1): its events are the neighbor counts.
const reliability::FaultModel& paper_model() {
  static const std::unique_ptr<reliability::FaultModel> model =
      reliability::make_fault_model(reliability::FaultModelSpec());
  return *model;
}

void assign_one(TernaryTruthTable& f, std::uint32_t minterm, bool to_on,
                AssignmentResult& result) {
  f.set_phase(minterm, to_on ? Phase::kOne : Phase::kZero);
  ++result.assigned;
  if (to_on) ++result.assigned_on;
}

/// Assigns the first `count` DCs of the ranked list. Decisions are static,
/// so only which DCs rank in the top `count` matters, not the order they
/// are assigned in: a linear-time selection (nth_element, in place)
/// replaces Fig. 3's full sort. A full sort would pay O(k log k) on every
/// cold, one-assign flow and never be reused.
AssignmentResult assign_top(TernaryTruthTable& f, std::span<DcCandidate> list,
                            std::size_t count) {
  AssignmentResult result;
  result.dc_before = f.dc_count();
  count = std::min(count, list.size());
  if (count < list.size())
    std::nth_element(list.begin(), list.begin() + count, list.end(),
                     ranks_before);
  for (std::size_t i = 0; i < count; ++i)
    assign_one(f, list[i].minterm, list[i].to_on, result);
  return result;
}

AssignmentResult rank_and_assign(TernaryTruthTable& f, double fraction,
                                 DcCandidates& candidates) {
  assert(fraction >= 0.0 && fraction <= 1.0);
  // Fig. 3 assigns indices 0 .. fraction * DC_List.length.
  const auto count = static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(candidates.size())));
  const AssignmentResult result = assign_top(f, candidates, count);
  obs::count(obs::Counter::kDcRankingAssigned, result.assigned);
  return result;
}

AssignmentResult lcf_filter_and_assign(TernaryTruthTable& f, double threshold,
                                       bool assign_balanced,
                                       const DcCandidates& candidates,
                                       const NeighborTable& neighbors) {
  AssignmentResult result;
  result.dc_before = f.dc_count();
  // The LC^f gate measures spec structure, not the fault scenario, on the
  // input specification (Fig. 7): `same` is filled before any DC is
  // assigned. LC^f(m) sums the same-phase neighbor count S over m's
  // neighbors; one byte array of S serves every candidate.
  const unsigned n = f.num_inputs();
  std::vector<std::uint8_t> same(f.size());
  neighbors.same_phase_neighbors(f, same);
  // The DCs without a candidate entry are the tied ones.
  BitVec tied;
  if (assign_balanced) {
    tied = f.dc_bits();
    for (const DcCandidate& c : candidates) tied.set(c.minterm, false);
  }
  const double pairs = static_cast<double>(n) * n;
  const auto below = [&](std::uint32_t m) {
    unsigned t = 0;
    for (unsigned j = 0; j < n; ++j) t += same[flip_bit(m, j)];
    // The division of the per-minterm definition (the test oracle
    // oracle::local_complexity_factor), so the values match bit for bit.
    return static_cast<double>(t) / pairs < threshold;
  };
  for (const DcCandidate& c : candidates)
    if (below(c.minterm)) assign_one(f, c.minterm, c.to_on, result);
  // Tied DCs go to the off-set: Fig. 7's literal "else x <- 0".
  tied.for_each_set([&](std::uint64_t m) {
    if (below(static_cast<std::uint32_t>(m)))
      assign_one(f, static_cast<std::uint32_t>(m), false, result);
  });
  obs::count(obs::Counter::kDcLcfAssigned, result.assigned);
  return result;
}

/// The unassigned DCs of ranking_assign_incremental, one bitset per
/// current weight 1..n. pop() returns the DC of largest weight, smallest
/// index among those: the order a max-heap on (weight, -minterm) pops.
/// Every weight change is O(1), where a heap pays a log-time push.
class WeightBuckets {
 public:
  WeightBuckets(unsigned max_weight, std::uint32_t size)
      : words_((size + 63) / 64),
        summary_words_((words_ + 63) / 64),
        bits_((max_weight + 1) * words_),
        summary_((max_weight + 1) * summary_words_),
        count_(max_weight + 1) {}

  void insert(unsigned weight, std::uint32_t m) {
    const std::size_t w = weight * words_ + m / 64;
    bits_[w] |= std::uint64_t{1} << (m % 64);
    summary_[weight * summary_words_ + (m / 64) / 64] |=
        std::uint64_t{1} << ((m / 64) % 64);
    ++count_[weight];
    top_ = std::max(top_, weight);
  }

  void erase(unsigned weight, std::uint32_t m) {
    const std::size_t w = weight * words_ + m / 64;
    bits_[w] &= ~(std::uint64_t{1} << (m % 64));
    if (bits_[w] == 0)
      summary_[weight * summary_words_ + (m / 64) / 64] &=
          ~(std::uint64_t{1} << ((m / 64) % 64));
    --count_[weight];
  }

  /// Removes the next DC into `m`; false when none is left.
  bool pop(std::uint32_t& m) {
    while (top_ > 0 && count_[top_] == 0) --top_;  // the top only falls here
    if (top_ == 0) return false;
    const std::uint64_t* summary = &summary_[top_ * summary_words_];
    std::size_t s = 0;
    while (summary[s] == 0) ++s;
    const std::size_t word = s * 64 + std::countr_zero(summary[s]);
    m = static_cast<std::uint32_t>(
        word * 64 + std::countr_zero(bits_[top_ * words_ + word]));
    erase(top_, m);
    return true;
  }

 private:
  std::size_t words_;          ///< bitset words per bucket
  std::size_t summary_words_;  ///< summary words per bucket
  std::vector<std::uint64_t> bits_;     ///< bucket w's minterm bits
  std::vector<std::uint64_t> summary_;  ///< bit i: word i of the bucket != 0
  std::vector<std::uint32_t> count_;    ///< DCs per bucket
  unsigned top_ = 0;  ///< no bucket above it holds a DC
};

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

DcCandidates dc_candidates(const TernaryTruthTable& f,
                           const NeighborTable& neighbors,
                           const reliability::FaultModel& model) {
  const std::vector<std::uint32_t> dcs = f.dc_minterms();
  const std::vector<reliability::MintermEvents> events =
      model.dc_assignment_events(f, dcs, neighbors);
  DcCandidates candidates;
  candidates.reserve(dcs.size());
  for (std::size_t i = 0; i < dcs.size(); ++i) {
    const double w = std::abs(events[i].if_on - events[i].if_off);
    if (w > 0.0)
      candidates.push_back({w, dcs[i], events[i].if_on < events[i].if_off});
  }
  return candidates;
}

AssignmentResult ranking_assign(TernaryTruthTable& f, double fraction) {
  DcCandidates candidates = dc_candidates(f, NeighborTable(f), paper_model());
  return rank_and_assign(f, fraction, candidates);
}

AssignmentResult ranking_assign_count(TernaryTruthTable& f,
                                      std::uint32_t count) {
  DcCandidates candidates = dc_candidates(f, NeighborTable(f), paper_model());
  return assign_top(f, candidates, count);
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

  // Per-minterm on/off neighbor counts, kept current for the unassigned
  // DCs as their neighbors get assigned.
  std::vector<NeighborCounts> counts(f.size());
  for (std::uint32_t m = 0; m < f.size(); ++m) counts[m] = neighbors.at(m);
  // |on-neighbors - off-neighbors|, the Fig. 3 ranking weight.
  auto weight = [&](std::uint32_t m) {
    const NeighborCounts& c = counts[m];
    return c.on > c.off ? unsigned{c.on} - c.off : unsigned{c.off} - c.on;
  };

  // Every unassigned DC of non-zero weight sits in the bucket of its
  // current weight; a DC whose majority vanished leaves the buckets (Fig.
  // 3's filter) until a later assignment restores one.
  WeightBuckets buckets(f.num_inputs(), f.size());
  std::size_t ranked = 0;  // nonzero-weight DCs, the ranked-list length
  for (std::uint32_t m : f.dc_minterms())
    if (weight(m) != 0) {
      buckets.insert(weight(m), m);
      ++ranked;
    }

  // Budget mirrors the static variant: the ranked-list length at the start.
  const std::size_t budget = static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(ranked)));

  std::uint32_t m = 0;
  while (result.assigned < budget && buckets.pop(m)) {
    const bool to_on = counts[m].on > counts[m].off;
    assign_one(f, m, to_on, result);
    // The assignment converts one DC neighbor of each adjacent minterm into
    // an on/off neighbor; move the still-unassigned ones to the bucket of
    // their new weight.
    for (unsigned j = 0; j < f.num_inputs(); ++j) {
      const std::uint32_t nbr = flip_bit(m, j);
      if (!f.is_dc(nbr)) continue;
      const unsigned before = weight(nbr);
      ++(to_on ? counts[nbr].on : counts[nbr].off);
      if (before != 0) buckets.erase(before, nbr);
      if (weight(nbr) != 0) buckets.insert(weight(nbr), nbr);
    }
  }
  obs::count(obs::Counter::kDcIncrementalAssigned, result.assigned);
  return result;
}

AssignmentResult lcf_assign(TernaryTruthTable& f, double threshold,
                            bool assign_balanced) {
  const NeighborTable neighbors(f);
  return lcf_filter_and_assign(f, threshold, assign_balanced,
                               dc_candidates(f, neighbors, paper_model()),
                               neighbors);
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
                                std::span<DcCandidates> candidates) {
  assert(candidates.size() == spec.num_outputs());
  return for_each_output(spec, [&](TernaryTruthTable& f, unsigned o) {
    return rank_and_assign(f, fraction, candidates[o]);
  });
}

AssignmentResult lcf_assign(IncompleteSpec& spec, double threshold,
                            bool assign_balanced,
                            std::span<const DcCandidates> candidates,
                            std::span<const NeighborTable> tables) {
  assert(candidates.size() == spec.num_outputs() &&
         tables.size() == spec.num_outputs());
  return for_each_output(spec, [&](TernaryTruthTable& f, unsigned o) {
    return lcf_filter_and_assign(f, threshold, assign_balanced, candidates[o],
                                 tables[o]);
  });
}

}  // namespace rdc
