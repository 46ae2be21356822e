// Differential tests for the truth-table ESPRESSO kernels. Each kernel is
// compared cube for cube, in order, against the cube-level formulation:
// per-variable expansion that rescans an off-cover and the peers once per
// candidate variable, a complement that cleans every merge with
// single-cube containment, and reduce/irredundant passes that build a
// `rest` cover per candidate and ask the cube-calculus oracle
// (oracles/cube_calculus.hpp) whether it covers the candidate. Those
// formulations live only here, as reference oracles. Three golden
// fingerprints pin the minimized covers of seeded random and synthetic
// specs.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "espresso/espresso.hpp"
#include "espresso/expand.hpp"
#include "espresso/irredundant.hpp"
#include "espresso/reduce.hpp"
#include "oracles/cube_calculus.hpp"
#include "oracles/expand_scan.hpp"
#include "synthetic/generator.hpp"

namespace rdc {
namespace {
using oracle::cofactor;
using oracle::complement_cube;
using oracle::cover_contains_cube;
using oracle::supercube;

// Calls between these functions are qualified where the library has a
// kernel of the same name, which argument-dependent lookup would also find.
namespace reference {

void remove_single_cube_contained(Cover& cover) {
  const std::vector<Cube>& cubes = cover.cubes();
  std::vector<Cube> kept;
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    bool contained = false;
    for (std::size_t j = 0; j < cubes.size() && !contained; ++j) {
      if (i == j) continue;
      if (cubes[j].contains(cubes[i]))
        contained = cubes[j] != cubes[i] || j < i;
    }
    if (!contained) kept.push_back(cubes[i]);
  }
  cover = Cover(cover.num_inputs(), std::move(kept));
}

struct Activity {
  unsigned negative = 0;
  unsigned positive = 0;
};

Activity variable_activity(const Cover& cover, unsigned j) {
  Activity a;
  for (const Cube& c : cover.cubes()) {
    const bool allow0 = test_bit(c.mask0, j);
    const bool allow1 = test_bit(c.mask1, j);
    if (allow0 && !allow1) ++a.negative;
    if (allow1 && !allow0) ++a.positive;
  }
  return a;
}

std::optional<unsigned> most_binate_variable(const Cover& cover) {
  std::optional<unsigned> best;
  unsigned best_min = 0;
  unsigned best_total = 0;
  for (unsigned j = 0; j < cover.num_inputs(); ++j) {
    const Activity a = variable_activity(cover, j);
    if (a.negative == 0 || a.positive == 0) continue;
    const unsigned lo = std::min(a.negative, a.positive);
    const unsigned total = a.negative + a.positive;
    if (!best || lo > best_min || (lo == best_min && total > best_total)) {
      best = j;
      best_min = lo;
      best_total = total;
    }
  }
  return best;
}

Cover complement(const Cover& cover) {
  const unsigned n = cover.num_inputs();
  const Cube full_cube = Cube::full(n);
  if (cover.empty_cover()) return Cover(n, {full_cube});
  for (const Cube& c : cover.cubes())
    if (c == full_cube) return Cover(n);
  if (cover.size() == 1) return complement_cube(cover.cube(0), n);

  unsigned split = 0;
  if (const auto binate = reference::most_binate_variable(cover); binate) {
    split = *binate;
  } else {
    unsigned best_activity = 0;
    for (unsigned j = 0; j < n; ++j) {
      const Activity a = variable_activity(cover, j);
      if (a.negative + a.positive > best_activity) {
        best_activity = a.negative + a.positive;
        split = j;
      }
    }
  }
  const Cube lo = full_cube.restricted(split, false);
  const Cube hi = full_cube.restricted(split, true);
  const Cover comp_lo = reference::complement(cofactor(cover, lo));
  const Cover comp_hi = reference::complement(cofactor(cover, hi));
  Cover result(n);
  for (const Cube& c : comp_lo.cubes()) result.add(c.intersect(lo));
  for (const Cube& c : comp_hi.cubes()) result.add(c.intersect(hi));
  remove_single_cube_contained(result);
  return result;
}

bool intersects_cover(const Cube& c, const Cover& cover) {
  for (const Cube& q : cover.cubes())
    if (oracle::intersects(c, q, cover.num_inputs())) return true;
  return false;
}

Cube expand_cube(const Cube& c, const Cover& off, const Cover& peers) {
  const unsigned n = off.num_inputs();
  Cube current = c;
  while (true) {
    int best_var = -1;
    std::size_t best_gain = 0;
    for (unsigned j = 0; j < n; ++j) {
      if (test_bit(current.mask0, j) == test_bit(current.mask1, j)) continue;
      const Cube raised = current.expanded(j);
      if (intersects_cover(raised, off)) continue;
      std::size_t gain = 0;
      for (const Cube& p : peers.cubes())
        if (raised.contains(p) && !current.contains(p)) ++gain;
      if (best_var < 0 || gain > best_gain) {
        best_var = static_cast<int>(j);
        best_gain = gain;
      }
    }
    if (best_var < 0) return current;
    current = current.expanded(static_cast<unsigned>(best_var));
  }
}

// Indices of `cover`, most literals first (`descending`) or fewest first.
std::vector<std::size_t> by_literals(const Cover& cover, bool descending) {
  const unsigned n = cover.num_inputs();
  std::vector<std::size_t> order(cover.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
    const unsigned la = cover.cube(a).literal_count(n);
    const unsigned lb = cover.cube(b).literal_count(n);
    return descending ? la > lb : la < lb;
  });
  return order;
}

Cover expand(const Cover& on, const Cover& off) {
  Cover result(on.num_inputs());
  std::vector<bool> covered(on.size(), false);
  for (std::size_t idx : by_literals(on, true)) {
    if (covered[idx]) continue;
    const Cube prime = reference::expand_cube(on.cube(idx), off, on);
    result.add(prime);
    for (std::size_t i = 0; i < on.size(); ++i)
      if (!covered[i] && prime.contains(on.cube(i))) covered[i] = true;
  }
  remove_single_cube_contained(result);
  return result;
}

Cover irredundant(const Cover& on, const Cover& dc) {
  const unsigned n = on.num_inputs();
  std::vector<bool> alive(on.size(), true);
  for (std::size_t candidate : by_literals(on, true)) {
    Cover rest(n);
    for (std::size_t i = 0; i < on.size(); ++i)
      if (alive[i] && i != candidate) rest.add(on.cube(i));
    for (const Cube& c : dc.cubes()) rest.add(c);
    if (cover_contains_cube(rest, on.cube(candidate)))
      alive[candidate] = false;
  }
  Cover result(n);
  for (std::size_t i = 0; i < on.size(); ++i)
    if (alive[i]) result.add(on.cube(i));
  return result;
}

Cover reduce(const Cover& on, const Cover& dc) {
  const unsigned n = on.num_inputs();
  std::vector<Cube> cubes = on.cubes();
  std::vector<bool> dropped(cubes.size(), false);
  for (std::size_t idx : by_literals(on, false)) {
    Cover rest(n);
    for (std::size_t i = 0; i < cubes.size(); ++i)
      if (i != idx && !dropped[i]) rest.add(cubes[i]);
    for (const Cube& c : dc.cubes()) rest.add(c);
    const Cover uncovered = reference::complement(cofactor(rest, cubes[idx]));
    if (uncovered.empty_cover())
      dropped[idx] = true;
    else
      cubes[idx] = cubes[idx].intersect(supercube(uncovered));
  }
  Cover result(n);
  for (std::size_t i = 0; i < cubes.size(); ++i)
    if (!dropped[i]) result.add(cubes[i]);
  return result;
}

// The minimize_bounded loop without budgets, on cube covers.
Cover espresso(const Cover& on, const Cover& dc, const Cover& off,
               unsigned max_iterations) {
  Cover current = on;
  remove_single_cube_contained(current);
  if (current.empty_cover()) return current;
  const auto cost = [](const Cover& c) {
    return std::pair(c.size(), c.literal_count());
  };
  current = reference::irredundant(reference::expand(current, off), dc);
  Cover best = current;
  for (unsigned iter = 0; iter < max_iterations; ++iter) {
    current = reference::irredundant(
        reference::expand(reference::reduce(current, dc), off), dc);
    if (cost(current) >= cost(best)) break;
    best = current;
  }
  return best;
}

// The cube-level minimize: the loop on minterm covers against the
// complement of on ∪ dc.
Cover minimize(const TernaryTruthTable& f, unsigned max_iterations) {
  const Cover on = Cover::from_phase(f, Phase::kOne);
  const Cover dc = Cover::from_phase(f, Phase::kDc);
  Cover on_dc = on;
  for (const Cube& c : dc.cubes()) on_dc.add(c);
  return reference::espresso(on, dc, reference::complement(on_dc),
                            max_iterations);
}

}  // namespace reference

Cube random_cube(unsigned n, double literal_prob, Rng& rng) {
  Cube c = Cube::full(n);
  for (unsigned j = 0; j < n; ++j)
    if (rng.flip(literal_prob)) c = c.restricted(j, rng.flip(0.5));
  return c;
}

// `count` random cubes, then copies of random earlier cubes inserted at
// random positions so that duplicate cubes are common.
Cover random_cover(unsigned n, std::size_t count, double literal_prob,
                   Rng& rng) {
  std::vector<Cube> cubes;
  for (std::size_t i = 0; i < count; ++i)
    cubes.push_back(random_cube(n, literal_prob, rng));
  for (std::size_t i = 0; i < count / 4 && !cubes.empty(); ++i) {
    const Cube copy = cubes[rng.below(cubes.size())];
    cubes.insert(cubes.begin() + static_cast<std::ptrdiff_t>(
                                     rng.below(cubes.size() + 1)),
                 copy);
  }
  return Cover(n, std::move(cubes));
}

// Minterm cubes of `count` random minterms (possibly repeated).
Cover random_minterms(unsigned n, std::size_t count, Rng& rng) {
  Cover cover(n);
  for (std::size_t i = 0; i < count; ++i)
    cover.add(Cube::minterm(
        static_cast<std::uint32_t>(rng.below(std::uint64_t{1} << n)), n));
  return cover;
}

std::string dump(const Cover& cover) {
  std::string text;
  for (const Cube& c : cover.cubes())
    text += c.to_string(cover.num_inputs()) + ' ';
  return text;
}

void expect_same(const Cover& got, const Cover& want, const std::string& what) {
  EXPECT_EQ(got.cubes(), want.cubes())
      << what << "\n  got  " << dump(got) << "\n  want " << dump(want);
}

TernaryTruthTable random_ternary(unsigned n, double dc_prob, Rng& rng) {
  TernaryTruthTable f(n);
  for (std::uint32_t m = 0; m < f.size(); ++m) {
    if (rng.flip(dc_prob))
      f.set_phase(m, Phase::kDc);
    else
      f.set_phase(m, rng.flip(0.5) ? Phase::kOne : Phase::kZero);
  }
  return f;
}

TEST(EspressoKernels, RemoveContainedMatchesReference) {
  Rng rng(101);
  for (unsigned n = 1; n <= 14; ++n) {
    for (int trial = 0; trial < 12; ++trial) {
      Cover cover = trial % 3 == 0
                        ? random_minterms(n, 1 + rng.below(60), rng)
                        : random_cover(n, 1 + rng.below(60),
                                       0.1 + 0.8 * rng.uniform(), rng);
      Cover want = cover;
      reference::remove_single_cube_contained(want);
      cover.remove_single_cube_contained();
      expect_same(cover, want, "n=" + std::to_string(n));
    }
  }
}

TEST(EspressoKernels, ComplementMatchesReference) {
  Rng rng(103);
  for (unsigned n = 1; n <= 14; ++n) {
    for (int trial = 0; trial < 8; ++trial) {
      const Cover cover =
          random_cover(n, rng.below(24), 0.3 + 0.5 * rng.uniform(), rng);
      const Cover got = oracle::complement(cover);
      expect_same(got, reference::complement(cover), "n=" + std::to_string(n));
      // The merge needs no cleanup: the result is containment-free.
      Cover cleaned = got;
      reference::remove_single_cube_contained(cleaned);
      EXPECT_EQ(cleaned.size(), got.size()) << "n=" << n;
    }
  }
}

TEST(EspressoKernels, ExpandCubeMatchesReference) {
  Rng rng(107);
  for (unsigned n = 1; n <= 14; ++n) {
    for (int trial = 0; trial < 40; ++trial) {
      // The off-cover may meet the cube: then nothing can be raised.
      const Cube c = random_cube(n, 0.4 + 0.6 * rng.uniform(), rng);
      Cover off =
          random_cover(n, rng.below(20), 0.5 + 0.5 * rng.uniform(), rng);
      if (trial % 5 == 0 && !off.empty_cover()) {
        // An off-cube with an empty part meets nothing, so blocks nothing.
        const std::uint32_t bit = 1u << rng.below(n);
        off.cubes()[0].mask0 &= ~bit;
        off.cubes()[0].mask1 &= ~bit;
      }
      const Cover peers = trial % 2 ? random_minterms(n, rng.below(40), rng)
                                    : random_cover(n, rng.below(40), 0.6, rng);
      EXPECT_EQ(expand_cube(c, off.minterm_bits(), peers),
                reference::expand_cube(c, off, peers))
          << "n=" << n << " cube " << c.to_string(n);
    }
  }
}

// A random function: each minterm ON with probability `density`, else DC
// or OFF with even odds.
TernaryTruthTable random_with_density(unsigned n, double density, Rng& rng) {
  TernaryTruthTable f(n);
  for (std::uint32_t m = 0; m < f.size(); ++m) {
    if (rng.flip(density))
      f.set_phase(m, Phase::kOne);
    else
      f.set_phase(m, rng.flip(0.5) ? Phase::kDc : Phase::kZero);
  }
  return f;
}

void shuffle(std::vector<Cube>& cubes, Rng& rng) {
  for (std::size_t i = cubes.size(); i > 1; --i)
    std::swap(cubes[i - 1], cubes[rng.below(i)]);
}

// The first EXPAND's input, distinct ON minterms (here in random order),
// takes the bitset-gain path; the peer-scan oracle must agree cube for cube.
// With repeated minterms added, the cover must take the peer scan: bitset
// gains would count a repeated minterm once. The oracle scans every
// minterm per raise, so covers of more than ~8 000 minterms (the dense end
// above n = 13) are skipped.
TEST(EspressoKernels, ExpandOnMintermsMatchesScan) {
  Rng rng(127);
  for (unsigned n = 0; n <= 16; ++n) {
    for (double density : {0.05, 0.3, 0.6, 0.9}) {
      if (density * (1u << n) > 8000) continue;
      const TernaryTruthTable f = random_with_density(n, density, rng);
      const BitVec off = f.off_bits();
      std::vector<Cube> cubes = Cover::from_phase(f, Phase::kOne).cubes();
      for (const bool repeated : {false, true}) {
        if (repeated && !cubes.empty())
          for (std::size_t i = 0, count = cubes.size(); i <= count / 4; ++i)
            cubes.push_back(cubes[rng.below(count)]);
        shuffle(cubes, rng);
        const Cover on(n, cubes);
        const Cover got = expand(on, off);
        const std::string at = "n=" + std::to_string(n) + " density " +
                               std::to_string(density) +
                               (repeated ? " repeated" : "");
        expect_same(got, oracle::expand_scan(on, off), "scan " + at);
        if (n <= 10)
          expect_same(
              got, reference::expand(on, Cover::from_phase(f, Phase::kZero)),
              "reference " + at);
      }
    }
  }
}

// The consensus x1 x2 of the primes !x0 x1 and x0 x2 lies inside their
// union but inside neither, so it is not covered: it expands to itself.
TEST(EspressoKernels, ExpandKeepsCubeInsideUnionOfTwoPrimes) {
  Cover on(3);
  for (const char* c : {"-11", "010", "101"}) on.add(Cube::parse(c));
  Cover off(3);
  for (const char* m : {"000", "001", "100", "110"}) off.add(Cube::parse(m));
  const Cover got = expand(on, off.minterm_bits());
  EXPECT_EQ(dump(got), "01- 1-1 -11 ");
  expect_same(got, reference::expand(on, off), "reference");
}

TEST(EspressoKernels, PassesMatchReference) {
  Rng rng(109);
  for (unsigned n = 1; n <= 14; ++n) {
    for (int trial = 0; trial < 4; ++trial) {
      // An on-cover with duplicates, a DC cover of minterm cubes, and the
      // off-cover as the complement of both.
      const Cover on =
          random_cover(n, 1 + rng.below(24), 0.5 + 0.4 * rng.uniform(), rng);
      const Cover dc = random_minterms(n, rng.below(3 * n), rng);
      Cover on_dc = on;
      for (const Cube& c : dc.cubes()) on_dc.add(c);
      const Cover off = reference::complement(on_dc);
      const std::string at = "n=" + std::to_string(n) + " trial " +
                             std::to_string(trial);

      expect_same(oracle::complement(on_dc), off, "complement " + at);
      const BitVec off_bits = off.minterm_bits();
      const BitVec dc_bits = dc.minterm_bits();
      const Cover expanded = expand(on, off_bits);
      expect_same(expanded, reference::expand(on, off), "expand " + at);
      const Cover irr = irredundant(expanded, dc_bits);
      expect_same(irr, reference::irredundant(expanded, dc),
                  "irredundant " + at);
      expect_same(reduce(irr, dc_bits), reference::reduce(irr, dc),
                  "reduce " + at);
      // Raw covers too: duplicates and redundant cubes left in.
      expect_same(irredundant(on, dc_bits), reference::irredundant(on, dc),
                  "irredundant(on) " + at);
      expect_same(reduce(on, dc_bits), reference::reduce(on, dc),
                  "reduce(on) " + at);
    }
  }
}

TEST(EspressoKernels, MinimizeMatchesReference) {
  Rng rng(113);
  for (unsigned n = 1; n <= 12; ++n) {
    for (double dc_prob : {0.1, 0.5, 0.8}) {
      const TernaryTruthTable f = random_ternary(n, dc_prob, rng);
      for (unsigned iterations : {0u, 12u}) {
        EspressoOptions options;
        options.max_iterations = iterations;
        expect_same(minimize(f, options), reference::minimize(f, iterations),
                    "n=" + std::to_string(n) + " minimize(" +
                        std::to_string(iterations) + ")");
      }
    }
  }
}

// Folds a cover into an FNV-1a hash: its cube count, then each cube's masks.
std::uint64_t hash_cover(const Cover& cover, std::uint64_t hash) {
  hash = fnv1a_u64(cover.size(), hash);
  for (const Cube& c : cover.cubes())
    hash = fnv1a_u64(std::uint64_t{c.mask1} << 32 | c.mask0, hash);
  return hash;
}

// FNV-1a over every minimized cover of a fixed set of seeded random specs
// (cube count, then each cube's masks). The literal was computed with the
// per-variable kernels; any change to a cover, or to cube order, moves it.
TEST(EspressoGolden, CoverFingerprint) {
  Rng rng(0x5eed);
  std::uint64_t hash = kFnv1aOffset;
  for (unsigned n = 1; n <= 11; ++n) {
    for (double dc_prob : {0.2, 0.6}) {
      const TernaryTruthTable f = random_ternary(n, dc_prob, rng);
      for (unsigned iterations : {0u, 12u}) {
        EspressoOptions options;
        options.max_iterations = iterations;
        hash = hash_cover(minimize(f, options), hash);
      }
    }
  }
  EXPECT_EQ(hash, 0x3a64906a1286870full);
}

// The same fingerprint over synthetic specs of the paper's kind (C^f =
// 0.55, 40% and 70% DC) at the widths where the flow spends its time. The
// literal was computed with the cube-calculus kernels.
TEST(EspressoGolden, SyntheticFingerprint) {
  Rng rng(0xc0ffee);
  std::uint64_t hash = kFnv1aOffset;
  for (unsigned n = 12; n <= 16; ++n) {
    for (double dc_fraction : {0.4, 0.7}) {
      const TernaryTruthTable f = generate_function(
          options_for_target(n, dc_fraction, 0.55), rng);
      hash = hash_cover(minimize(f), hash);
    }
  }
  EXPECT_EQ(hash, 0x9954a348b4838286ull);
}

// The same fingerprint at n = 17…20: one synthetic spec per width at 40%
// DC, annealing capped at 20 000 steps (DESIGN.md §7). At these widths most
// of a cube's literals are word-index inputs (j >= 6).
TEST(EspressoGolden, WideFingerprint) {
  Rng rng(0x31de);
  std::uint64_t hash = kFnv1aOffset;
  for (unsigned n = 17; n <= 20; ++n) {
    SyntheticOptions options = options_for_target(n, 0.4, 0.55);
    options.max_iterations = 20000;
    hash = hash_cover(minimize(generate_function(options, rng)), hash);
  }
  EXPECT_EQ(hash, 0x094ee0869f684b3cull);
}

}  // namespace
}  // namespace rdc
