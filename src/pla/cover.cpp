#include "pla/cover.hpp"

#include <bit>
#include <cassert>
#include <unordered_set>

namespace rdc {

std::uint64_t Cover::literal_count() const {
  std::uint64_t total = 0;
  for (const Cube& c : cubes_) total += c.literal_count(num_inputs_);
  return total;
}

// parse_pla calls this once per minterm and cover, so its short loop is
// the parser's hot path. Starting it on a cache line fixes where the
// loop's branches fall relative to 32-byte boundaries, whatever the size
// of the code linked before it. On Intel CPUs with the JCC-erratum
// microcode a branch that crosses such a boundary is not cached as
// decoded; on a Xeon VM that made PLA parsing about 40% slower.
[[gnu::aligned(64)]] bool Cover::covers_minterm(std::uint32_t m) const {
  for (const Cube& c : cubes_)
    if (c.contains_minterm(m, num_inputs_)) return true;
  return false;
}

BitVec Cover::minterm_bits() const {
  BitVec bits(num_minterms(num_inputs_));
  for (const Cube& c : cubes_) paint_cube(bits, c, num_inputs_);
  return bits;
}

Cover Cover::from_phase(const TernaryTruthTable& f, Phase phase) {
  const BitVec bits = phase == Phase::kOne  ? f.on_bits()
                      : phase == Phase::kDc ? f.dc_bits()
                                            : f.off_bits();
  Cover cover(f.num_inputs());
  cover.cubes_.reserve(bits.count());
  bits.for_each_set([&](std::uint64_t m) {
    cover.add(Cube::minterm(static_cast<std::uint32_t>(m), f.num_inputs()));
  });
  return cover;
}

void Cover::remove_single_cube_contained() {
  if (cubes_.size() < 2) return;
  // Containment is bitwise inclusion of both masks, so a cube can only be
  // contained by a cube with more set mask bits (fewer literals), or by an
  // equal one. Equal cubes: the earliest one wins. Strict containment: it
  // is enough to compare each cube against the survivors of strictly
  // greater weight, because whatever contains a removed cube contains what
  // that cube contained. A cover of distinct minterms costs O(N).
  std::vector<bool> removed(cubes_.size(), false);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(cubes_.size());
  std::vector<std::vector<std::size_t>> by_weight(65);
  for (std::size_t i = 0; i < cubes_.size(); ++i) {
    const Cube& c = cubes_[i];
    if (!seen.insert(std::uint64_t{c.mask1} << 32 | c.mask0).second) {
      removed[i] = true;
      continue;
    }
    by_weight[std::popcount(c.mask0) + std::popcount(c.mask1)].push_back(i);
  }
  std::vector<Cube> heavier;  // survivors of every weight visited so far
  for (std::size_t w = by_weight.size(); w-- > 0;) {
    const std::size_t visited = heavier.size();
    for (std::size_t i : by_weight[w]) {
      const Cube& c = cubes_[i];
      for (std::size_t h = 0; h < visited && !removed[i]; ++h)
        removed[i] = heavier[h].contains(c);
      if (!removed[i]) heavier.push_back(c);
    }
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < cubes_.size(); ++i)
    if (!removed[i]) cubes_[kept++] = cubes_[i];
  cubes_.resize(kept);
}

}  // namespace rdc
