// Unit tests for cubes, covers and .pla parsing/writing.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "oracles/cube_calculus.hpp"
#include "oracles/expand_scan.hpp"
#include "pla/cover.hpp"
#include "pla/cube.hpp"
#include "pla/pla_io.hpp"

namespace rdc {
namespace {

TEST(Cube, ParseAndToString) {
  const Cube c = Cube::parse("1-0");
  EXPECT_EQ(c.to_string(3), "1-0");
  EXPECT_EQ(c.literal_count(3), 2u);
}

TEST(Cube, ParseRejectsBadCharacters) {
  EXPECT_THROW(Cube::parse("10x"), std::invalid_argument);
}

TEST(Cube, FullAndMinterm) {
  const Cube full = Cube::full(4);
  EXPECT_EQ(full.literal_count(4), 0u);
  const Cube m = Cube::minterm(0b1010, 4);
  EXPECT_EQ(m.literal_count(4), 4u);
  EXPECT_TRUE(m.contains_minterm(0b1010, 4));
  EXPECT_FALSE(m.contains_minterm(0b1011, 4));
  EXPECT_EQ(m.to_string(4), "0101");  // variable 0 printed first
}

TEST(Cube, ContainsMinterm) {
  const Cube c = Cube::parse("1-0");  // x0=1, x2=0
  EXPECT_TRUE(c.contains_minterm(0b001, 3));
  EXPECT_TRUE(c.contains_minterm(0b011, 3));
  EXPECT_FALSE(c.contains_minterm(0b101, 3));
  EXPECT_FALSE(c.contains_minterm(0b000, 3));
}

TEST(Cube, Containment) {
  const Cube big = Cube::parse("1--");
  const Cube small = Cube::parse("1-0");
  EXPECT_TRUE(big.contains(small));
  EXPECT_FALSE(small.contains(big));
  EXPECT_TRUE(big.contains(big));
}

TEST(Cube, IntersectionAndEmptiness) {
  const Cube a = Cube::parse("1--");
  const Cube b = Cube::parse("0--");
  EXPECT_TRUE(a.intersect(b).empty(3));
  const Cube c = Cube::parse("-1-");
  EXPECT_FALSE(a.intersect(c).empty(3));
  EXPECT_EQ(a.intersect(c).to_string(3), "11-");
}

TEST(Cube, ExpandAndRestrict) {
  const Cube c = Cube::parse("10-");
  EXPECT_EQ(c.expanded(0).to_string(3), "-0-");
  EXPECT_EQ(c.restricted(2, true).to_string(3), "101");
}

TEST(Cover, CoversMinterm) {
  Cover cover(3);
  cover.add(Cube::parse("1--"));
  cover.add(Cube::parse("-11"));
  EXPECT_TRUE(cover.covers_minterm(0b001));   // x0=1
  EXPECT_TRUE(cover.covers_minterm(0b110));   // x1=1, x2=1
  EXPECT_FALSE(cover.covers_minterm(0b010));  // x1=1 only
}

TEST(Cover, LiteralCount) {
  Cover cover(3);
  cover.add(Cube::parse("1-0"));
  cover.add(Cube::parse("111"));
  EXPECT_EQ(cover.literal_count(), 5u);
}

TEST(Cover, TruthTableRoundTrip) {
  Cover cover(3);
  cover.add(Cube::parse("1--"));
  TernaryTruthTable tt(3);
  cover.minterm_bits().for_each_set([&](std::uint64_t m) {
    tt.set_phase(static_cast<std::uint32_t>(m), Phase::kOne);
  });
  EXPECT_EQ(tt.on_count(), 4u);
  const Cover back = Cover::from_phase(tt, Phase::kOne);
  EXPECT_EQ(back.size(), 4u);
  for (std::uint32_t m = 0; m < 8; ++m)
    EXPECT_EQ(back.covers_minterm(m), cover.covers_minterm(m));
}

TEST(Cube, VariableMaskCoversEveryWidth) {
  EXPECT_EQ(var_mask(0), 0u);
  EXPECT_EQ(var_mask(5), 0x1fu);
  EXPECT_EQ(var_mask(32), ~0u);
  // Width 32 shifts by the word size without the helper.
  const Cube m = Cube::minterm(0xf0f0f0f0u, 32);
  EXPECT_EQ(m.literal_count(32), 32u);
  EXPECT_TRUE(m.contains_minterm(0xf0f0f0f0u, 32));
  EXPECT_FALSE(m.contains_minterm(0xf0f0f0f1u, 32));
  EXPECT_FALSE(m.empty(32));
  EXPECT_EQ(Cube::full(32).literal_count(32), 0u);
  EXPECT_TRUE(m.intersect(Cube::minterm(0x0f0f0f0fu, 32)).empty(32));
  EXPECT_EQ(m.intersect(Cube::full(32)), m);
}

// The word painter agrees with contains_minterm at every width, on full,
// random and empty cubes, visits words in increasing order, stops when
// asked, and sets no bit past minterm 2^n - 1 (the BitVec tail invariant).
TEST(Cube, MintermWordsMatchContainsMinterm) {
  Rng rng(131);
  for (unsigned n = 0; n <= 20; ++n) {
    std::vector<Cube> cubes = {Cube::full(n), Cube{0, 0}};
    for (int i = 0; i < (n <= 12 ? 16 : 4); ++i) {
      Cube c = Cube::full(n);
      const double literal_prob = rng.uniform();
      for (unsigned j = 0; j < n; ++j)
        if (rng.flip(literal_prob)) c = c.restricted(j, rng.flip(0.5));
      cubes.push_back(c);
    }
    if (n > 0) {
      const std::uint32_t bit = 1u << rng.below(n);
      const Cube last = cubes.back();
      cubes.push_back(Cube{last.mask0 & ~bit, last.mask1 & ~bit});
    }
    for (const Cube& c : cubes) {
      BitVec bits(num_minterms(n));
      paint_cube(bits, c, n);
      if (n < 6) {
        EXPECT_EQ(bits.word(0) >> num_minterms(n), 0u) << "n=" << n;
      }
      std::uint32_t mismatches = 0;
      for (std::uint32_t m = 0; m < num_minterms(n); ++m)
        mismatches += bits.get(m) != c.contains_minterm(m, n);
      EXPECT_EQ(mismatches, 0u) << "n=" << n << " cube " << c.to_string(n);
      EXPECT_EQ(bits.count(), oracle::minterm_count(c, n)) << "n=" << n;

      std::size_t visits = 0;
      std::size_t next = 0;
      for_each_cube_word(c, n, [&](std::size_t w, std::uint64_t) {
        EXPECT_GE(w, next);
        next = w + 1;
        ++visits;
        return true;
      });
      std::size_t nonzero_words = 0;
      for (std::size_t w = 0; w < bits.num_words(); ++w)
        nonzero_words += bits.word(w) != 0;
      EXPECT_EQ(visits, nonzero_words) << "n=" << n;
      const bool stopped = !for_each_cube_word(
          c, n, [](std::size_t, std::uint64_t) { return false; });
      EXPECT_EQ(stopped, !c.empty(n));

      const auto m = static_cast<std::uint32_t>(rng.below(num_minterms(n)));
      BitVec single(num_minterms(n));
      single.set(m, true);
      EXPECT_EQ(oracle::cube_meets(single, c, n), c.contains_minterm(m, n));
    }
  }
}

TEST(Cover, MintermBitsMatchCoversMinterm) {
  Rng rng(137);
  for (unsigned n = 0; n <= 12; ++n) {
    Cover cover(n);
    for (int i = 0; i < 6; ++i) {
      Cube c = Cube::full(n);
      for (unsigned j = 0; j < n; ++j)
        if (rng.flip(0.6)) c = c.restricted(j, rng.flip(0.5));
      cover.add(c);
    }
    const BitVec bits = cover.minterm_bits();
    for (std::uint32_t m = 0; m < num_minterms(n); ++m)
      EXPECT_EQ(bits.get(m), cover.covers_minterm(m)) << "n=" << n;
  }
}

TEST(Cover, RemoveSingleCubeContained) {
  Cover cover(3);
  cover.add(Cube::parse("1--"));
  cover.add(Cube::parse("11-"));
  cover.add(Cube::parse("-0-"));
  cover.remove_single_cube_contained();
  EXPECT_EQ(cover.size(), 2u);
}

TEST(Cover, RemoveDuplicateCubesKeepsOne) {
  Cover cover(2);
  cover.add(Cube::parse("1-"));
  cover.add(Cube::parse("1-"));
  cover.remove_single_cube_contained();
  EXPECT_EQ(cover.size(), 1u);
}

TEST(PlaIo, ParseFdType) {
  const std::string text = R"(
# simple example
.i 2
.o 2
.type fd
.p 3
11 10
0- -1
10 01
.e
)";
  const IncompleteSpec spec = parse_pla_string(text, "simple");
  EXPECT_EQ(spec.num_inputs(), 2u);
  EXPECT_EQ(spec.num_outputs(), 2u);
  // Output 0: minterm 11 -> on, cubes 0- -> DC, rest off.
  EXPECT_EQ(spec.output(0).phase(0b11), Phase::kOne);
  EXPECT_EQ(spec.output(0).phase(0b00), Phase::kDc);
  EXPECT_EQ(spec.output(0).phase(0b10), Phase::kDc);
  EXPECT_EQ(spec.output(0).phase(0b01), Phase::kZero);
  // Output 1: 10 (x0=1,x1=0 -> minterm 0b01) -> on.
  EXPECT_EQ(spec.output(1).phase(0b01), Phase::kOne);
}

TEST(PlaIo, ParseFrType) {
  const std::string text = R"(
.i 2
.o 1
.type fr
11 1
00 0
.e
)";
  const IncompleteSpec spec = parse_pla_string(text, "fr");
  EXPECT_EQ(spec.output(0).phase(0b11), Phase::kOne);
  EXPECT_EQ(spec.output(0).phase(0b00), Phase::kZero);
  EXPECT_EQ(spec.output(0).phase(0b01), Phase::kDc);
  EXPECT_EQ(spec.output(0).phase(0b10), Phase::kDc);
}

TEST(PlaIo, ParseRejectsBadWidth) {
  EXPECT_THROW(parse_pla_string(".i 2\n.o 1\n111 1\n", "bad"),
               std::runtime_error);
}

TEST(PlaIo, ParseRejectsMissingHeader) {
  EXPECT_THROW(parse_pla_string("11 1\n", "bad"), std::runtime_error);
}

TEST(PlaIo, WriteParseRoundTrip) {
  IncompleteSpec spec("roundtrip", 3, 2);
  spec.output(0).set_phase(1, Phase::kOne);
  spec.output(0).set_phase(2, Phase::kDc);
  spec.output(1).set_phase(7, Phase::kOne);
  spec.output(1).set_phase(0, Phase::kDc);

  std::ostringstream out;
  write_pla(spec, out);
  const IncompleteSpec parsed = parse_pla_string(out.str(), "roundtrip");
  ASSERT_EQ(parsed.num_outputs(), 2u);
  for (unsigned o = 0; o < 2; ++o)
    for (std::uint32_t m = 0; m < 8; ++m)
      EXPECT_EQ(parsed.output(o).phase(m), spec.output(o).phase(m))
          << "output " << o << " minterm " << m;
}

TEST(PlaIo, CubeRowsMergeAcrossOutputs) {
  // The row format espresso emits: cubes with '-' inputs, one row per
  // input part, an ON column and a DC column sharing nothing.
  const std::string text =
      ".i 4\n.o 2\n.type fd\n.p 2\n"
      "01-- 0-\n"
      "1--- 10\n"
      ".e\n";
  const IncompleteSpec parsed = parse_pla_string(text, "merged");
  IncompleteSpec spec("merged", 4, 2);
  for (std::uint32_t m = 0; m < 16; ++m) {
    spec.output(0).set_phase(m, (m & 1) ? Phase::kOne : Phase::kZero);
    spec.output(1).set_phase(m, (m & 0b11) == 0b10 ? Phase::kDc
                                                   : Phase::kZero);
  }
  for (unsigned o = 0; o < 2; ++o)
    EXPECT_EQ(parsed.output(o), spec.output(o)) << "output " << o;
}

TEST(PlaIo, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "# header\n\n.i 1\n.o 1\n1 1  # trailing comment\n.e\n";
  const IncompleteSpec spec = parse_pla_string(text, "c");
  EXPECT_EQ(spec.output(0).phase(1), Phase::kOne);
}

}  // namespace
}  // namespace rdc
