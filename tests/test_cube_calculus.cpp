// Tests of the cube-calculus oracle (tests/oracles/cube_calculus.*):
// cofactor, tautology, binate selection, containment, complement.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "oracles/cube_calculus.hpp"

namespace rdc::oracle {
namespace {

TEST(Cover, Cofactor) {
  Cover cover(3);
  cover.add(Cube::parse("11-"));
  cover.add(Cube::parse("0--"));
  const Cover cof = cofactor(cover, Cube::parse("1--"));
  // The 0-- cube drops out; 11- has x0 raised.
  ASSERT_EQ(cof.size(), 1u);
  EXPECT_EQ(cof.cube(0).to_string(3), "-1-");
}

TEST(Unate, TautologyBasics) {
  Cover empty(3);
  EXPECT_FALSE(is_tautology(empty));

  Cover full(3);
  full.add(Cube::full(3));
  EXPECT_TRUE(is_tautology(full));

  Cover split(1);
  split.add(Cube::parse("0"));
  split.add(Cube::parse("1"));
  EXPECT_TRUE(is_tautology(split));

  Cover half(2);
  half.add(Cube::parse("1-"));
  EXPECT_FALSE(is_tautology(half));
}

TEST(Unate, TautologyNeedsBothBranches) {
  Cover cover(2);
  cover.add(Cube::parse("1-"));
  cover.add(Cube::parse("01"));
  EXPECT_FALSE(is_tautology(cover));
  cover.add(Cube::parse("00"));
  EXPECT_TRUE(is_tautology(cover));
}

TEST(Unate, TautologyMatchesEnumeration) {
  Rng rng(41);
  for (int trial = 0; trial < 50; ++trial) {
    const unsigned n = 3 + static_cast<unsigned>(rng.below(3));
    Cover cover(n);
    const std::uint64_t cubes = 1 + rng.below(6);
    for (std::uint64_t i = 0; i < cubes; ++i) {
      Cube c = Cube::full(n);
      for (unsigned v = 0; v < n; ++v) {
        const auto r = rng.below(3);
        if (r != 2) c = c.restricted(v, r == 1);
      }
      cover.add(c);
    }
    bool covers_all = true;
    for (std::uint32_t m = 0; m < num_minterms(n) && covers_all; ++m)
      covers_all = cover.covers_minterm(m);
    EXPECT_EQ(is_tautology(cover), covers_all) << "trial " << trial;
  }
}

TEST(Unate, MostBinateVariable) {
  Cover cover(3);
  cover.add(Cube::parse("1-0"));
  cover.add(Cube::parse("0-1"));
  const auto v = most_binate_variable(cover);
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(*v == 0 || *v == 2);

  Cover unate(3);
  unate.add(Cube::parse("1--"));
  unate.add(Cube::parse("-1-"));
  EXPECT_FALSE(most_binate_variable(unate).has_value());
}

TEST(Unate, CoverContainsCube) {
  Cover cover(2);
  cover.add(Cube::parse("1-"));
  cover.add(Cube::parse("01"));
  EXPECT_TRUE(cover_contains_cube(cover, Cube::parse("11")));
  EXPECT_TRUE(cover_contains_cube(cover, Cube::parse("-1")));
  EXPECT_FALSE(cover_contains_cube(cover, Cube::parse("-0")));
}

TEST(Complement, SingleCube) {
  const Cover comp = complement_cube(Cube::parse("10"), 2);
  // !(x0 & !x1) — check semantically.
  for (std::uint32_t m = 0; m < 4; ++m)
    EXPECT_EQ(comp.covers_minterm(m),
              !Cube::parse("10").contains_minterm(m, 2));
}

TEST(Complement, EmptyAndFull) {
  const Cover empty(3);
  const Cover comp = complement(empty);
  EXPECT_TRUE(is_tautology(comp));

  Cover full(3);
  full.add(Cube::full(3));
  EXPECT_TRUE(complement(full).empty_cover());
}

TEST(Complement, MatchesEnumeration) {
  Rng rng(43);
  for (int trial = 0; trial < 40; ++trial) {
    const unsigned n = 3 + static_cast<unsigned>(rng.below(4));
    Cover cover(n);
    const std::uint64_t cubes = rng.below(6);
    for (std::uint64_t i = 0; i < cubes; ++i) {
      Cube c = Cube::full(n);
      for (unsigned v = 0; v < n; ++v) {
        const auto r = rng.below(3);
        if (r != 2) c = c.restricted(v, r == 1);
      }
      cover.add(c);
    }
    const Cover comp = complement(cover);
    for (std::uint32_t m = 0; m < num_minterms(n); ++m)
      EXPECT_EQ(comp.covers_minterm(m), !cover.covers_minterm(m))
          << "trial " << trial << " minterm " << m;
  }
}

TEST(Supercube, OfCover) {
  Cover cover(3);
  cover.add(Cube::parse("110"));
  cover.add(Cube::parse("100"));
  EXPECT_EQ(supercube(cover).to_string(3), "1-0");
}

}  // namespace
}  // namespace rdc::oracle
