#include "espresso/expand.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <vector>

#include "exec/budget.hpp"

namespace rdc {
namespace {

// The raises still open to a growing cube, and what each would gain.
struct Raises {
  // Fixed variables whose raise misses OFF. Blocking is monotone: a raise
  // that meets OFF keeps meeting it as the cube grows.
  std::uint32_t open = 0;
  std::array<std::uint64_t, 32> gain{};
};

// Walks the minterms of `region` word by word and, for each open variable
// j, the same minterms with x_j flipped: j closes if one of those is OFF;
// otherwise, when `on` is given, the ON minterms among them add to gain[j].
// Stops once nothing is open. Returns true iff it found `region` meeting OFF.
bool walk(const Cube& region, unsigned n, const std::uint64_t* off,
          const std::uint64_t* on, Raises& raises) {
  bool meets = false;
  for_each_cube_word(region, n, [&](std::size_t w, std::uint64_t bits) {
    if ((off[w] & bits) != 0) {
      meets = true;
      return false;
    }
    for (std::uint32_t rest = raises.open; rest != 0; rest &= rest - 1) {
      const unsigned j = static_cast<unsigned>(std::countr_zero(rest));
      std::size_t fw = w;
      std::uint64_t fb = bits;
      if (j < 6)
        fb = word_neighbor_shift(bits, j);
      else
        fw ^= std::size_t{1} << (j - 6);
      if ((off[fw] & fb) != 0)
        raises.open &= ~(1u << j);
      else if (on != nullptr)
        raises.gain[j] += static_cast<unsigned>(std::popcount(on[fw] & fb));
    }
    return raises.open != 0;
  });
  return meets;
}

// expand_cube, with the gains read off `on` when it is given: the words of
// the ON bitset when the peers are its distinct minterms. A minterm peer
// misses the cube on exactly {j} iff it lies in the cube with literal j
// flipped, so gain_j = |ON ∩ flip_j(c)|.
Cube expand_one(const Cube& c, const BitVec& off, const Cover& peers,
                const std::uint64_t* on) {
  const unsigned n = peers.num_inputs();
  const std::uint32_t vars = var_mask(n);
  Raises raises;
  raises.open = (c.mask0 ^ c.mask1) & vars;
  // Raising only grows a cube, so one that meets OFF can raise nothing.
  if (walk(c, n, off.data(), on, raises)) return c;
  // Peers that may still add gain (scan path). Miss sets only shrink, so a
  // peer the cube contains, or one that misses on a blocked variable, never
  // again has a miss set of exactly one candidate; it drops out for good.
  std::vector<Cube> live;
  const std::vector<Cube>* scan = &peers.cubes();
  Cube current = c;
  while (raises.open != 0) {
    if (on == nullptr) {
      // Gain of raising j: peers that only j keeps out of the current cube.
      const std::uint32_t blocked =
          (current.mask0 ^ current.mask1) & vars & ~raises.open;
      raises.gain.fill(0);
      std::size_t kept = 0;
      for (std::size_t i = 0; i < scan->size(); ++i) {
        const Cube p = (*scan)[i];
        const std::uint32_t miss =
            (p.mask0 & ~current.mask0) | (p.mask1 & ~current.mask1);
        if (miss == 0 || (miss & blocked) != 0) continue;
        if ((miss & (miss - 1)) == 0) ++raises.gain[std::countr_zero(miss)];
        if (scan == &live)
          live[kept++] = p;
        else
          live.push_back(p);
      }
      if (scan == &live) live.resize(kept);
      scan = &live;
    }
    // Largest gain wins; ties go to the lowest variable.
    unsigned best = std::countr_zero(raises.open);
    for (std::uint32_t rest = raises.open & (raises.open - 1); rest != 0;
         rest &= rest - 1) {
      const unsigned j = std::countr_zero(rest);
      if (raises.gain[j] > raises.gain[best]) best = j;
    }
    // The raise adds h, the cube with literal `best` flipped. For every
    // other j, flip_j(c ∪ h) = flip_j(c) ∪ flip_j(h), so only h needs a
    // walk; it misses OFF, since `best` was open.
    const std::uint32_t bit = 1u << best;
    const Cube half{current.mask0 ^ bit, current.mask1 ^ bit};
    current = current.expanded(best);
    raises.open &= ~bit;
    walk(half, n, off.data(), on, raises);
  }
  return current;
}

// True iff every minterm of `c` is in `set`, a bitset of 2^n minterms.
bool cube_within(const BitVec& set, const Cube& c, unsigned n) {
  const std::uint64_t* words = set.data();
  return for_each_cube_word(c, n, [&](std::size_t w, std::uint64_t bits) {
    return (words[w] & bits) == bits;
  });
}

}  // namespace

Cube expand_cube(const Cube& c, const BitVec& off, const Cover& peers) {
  return expand_one(c, off, peers, nullptr);
}

Cover expand(const Cover& on, const BitVec& off) {
  const unsigned n = on.num_inputs();

  // Process small cubes first: they have the most to gain, and the cubes
  // they absorb never need their own expansion.
  std::vector<std::size_t> order(on.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return on.cube(a).literal_count(n) > on.cube(b).literal_count(n);
  });

  // Gains come from the ON bitset when the cubes are distinct minterms (the
  // first EXPAND). A repeated minterm is one peer per copy but one bit, so
  // duplicates, like general cubes, take the peer scan.
  BitVec on_bits;
  const bool minterms = std::all_of(
      on.cubes().begin(), on.cubes().end(),
      [&](const Cube& c) { return c.literal_count(n) == n; });
  if (minterms) on_bits = on.minterm_bits();
  const std::uint64_t* gains =
      minterms && on_bits.count() == on.size() ? on_bits.data() : nullptr;

  Cover result(n);
  // The union of the primes so far. A cube outside it is in no prime; a
  // minterm inside it is in one; any other cube inside it scans the primes.
  BitVec painted(std::uint64_t{1} << n);
  for (std::size_t idx : order) {
    const Cube& c = on.cube(idx);
    if (cube_within(painted, c, n) &&
        (c.literal_count(n) == n ||
         std::any_of(result.cubes().begin(), result.cubes().end(),
                     [&](const Cube& prime) { return prime.contains(c); })))
      continue;
    exec::checkpoint();  // per-cube budget poll (DESIGN.md §10)
    const Cube prime = expand_one(c, off, on, gains);
    result.add(prime);
    paint_cube(painted, prime, n);
  }
  result.remove_single_cube_contained();
  return result;
}

}  // namespace rdc
