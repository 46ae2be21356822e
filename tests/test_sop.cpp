// Tests for algebraic division, kernel extraction and factoring.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "espresso/espresso.hpp"
#include "oracles/artifact_checks.hpp"
#include "sop/division.hpp"
#include "sop/factor.hpp"
#include "sop/kernel.hpp"

namespace rdc {
namespace {

Cover cover_of(unsigned n, std::initializer_list<const char*> cubes) {
  Cover cover(n);
  for (const char* c : cubes) cover.add(Cube::parse(c));
  return cover;
}

TEST(Division, CubeDivides) {
  EXPECT_TRUE(cube_divides(Cube::parse("1--"), Cube::parse("11-")));
  EXPECT_TRUE(cube_divides(Cube::parse("---"), Cube::parse("110")));
  EXPECT_FALSE(cube_divides(Cube::parse("0--"), Cube::parse("11-")));
  EXPECT_FALSE(cube_divides(Cube::parse("11-"), Cube::parse("1--")));
}

TEST(Division, CubeQuotient) {
  const Cube q = cube_quotient(Cube::parse("110"), Cube::parse("1--"));
  EXPECT_EQ(q.to_string(3), "-10");
}

TEST(Division, ByLiteral) {
  // F = x0 x1 + x0 x2 + !x0 -> F / x0 = x1 + x2, R = !x0.
  const Cover f = cover_of(3, {"11-", "1-1", "0--"});
  const DivisionResult result = divide_by_literal(f, 0, true);
  EXPECT_EQ(result.quotient.size(), 2u);
  EXPECT_EQ(result.remainder.size(), 1u);
  EXPECT_EQ(result.remainder.cube(0).to_string(3), "0--");
}

TEST(Division, WeakDivideMultiCube) {
  // F = a c + a d + b c + b d + e  (vars a,b,c,d,e = x0..x4)
  // D = c + d  ->  Q = a + b, R = e.
  const Cover f =
      cover_of(5, {"1-1--", "1--1-", "-11--", "-1-1-", "----1"});
  const Cover d = cover_of(5, {"--1--", "---1-"});
  const DivisionResult result = weak_divide(f, d);
  EXPECT_EQ(result.quotient.size(), 2u);
  EXPECT_EQ(result.remainder.size(), 1u);
  EXPECT_EQ(result.remainder.cube(0).to_string(5), "----1");
  // Q * D + R must reproduce F's cubes.
  const Cover product = algebraic_product(result.quotient, d);
  EXPECT_EQ(product.size(), 4u);
}

TEST(Division, WeakDivideNoQuotient) {
  const Cover f = cover_of(3, {"1--"});
  const Cover d = cover_of(3, {"-1-", "--1"});
  const DivisionResult result = weak_divide(f, d);
  EXPECT_TRUE(result.quotient.empty_cover());
  EXPECT_EQ(result.remainder.size(), 1u);
}

TEST(Kernel, CommonCube) {
  const Cover f = cover_of(3, {"11-", "1-1"});
  EXPECT_EQ(common_cube(f).to_string(3), "1--");
  // Cube-free: no literal divides every cube.
  EXPECT_NE(common_cube(f), Cube::full(3));
  EXPECT_EQ(common_cube(make_cube_free(f)), Cube::full(3));
}

TEST(Kernel, CubeFreeCoverIsItsOwnKernel) {
  const Cover f = cover_of(2, {"1-", "-1"});
  const auto kernels = all_kernels(f);
  ASSERT_FALSE(kernels.empty());
  // The cover itself appears as a kernel with the universal co-kernel.
  bool found_self = false;
  for (const Kernel& k : kernels)
    if (k.kernel.size() == f.size() && k.cokernel == Cube::full(2))
      found_self = true;
  EXPECT_TRUE(found_self);
}

TEST(Kernel, ClassicExample) {
  // F = a c + a d + b c + b d: kernels include (a+b) and (c+d).
  const Cover f = cover_of(4, {"1-1-", "1--1", "-11-", "-1-1"});
  const auto kernels = all_kernels(f);
  bool found_ab = false;
  bool found_cd = false;
  for (const Kernel& k : kernels) {
    if (k.kernel.size() != 2) continue;
    std::string s0 = k.kernel.cube(0).to_string(4);
    std::string s1 = k.kernel.cube(1).to_string(4);
    if ((s0 == "1---" && s1 == "-1--") || (s0 == "-1--" && s1 == "1---"))
      found_ab = true;
    if ((s0 == "--1-" && s1 == "---1") || (s0 == "---1" && s1 == "--1-"))
      found_cd = true;
  }
  EXPECT_TRUE(found_ab);
  EXPECT_TRUE(found_cd);
}

TEST(Kernel, CubeHasNoKernels) {
  const Cover f = cover_of(3, {"110"});
  EXPECT_TRUE(all_kernels(f).empty());
}

TEST(Kernel, Level0IsCubeFreeAndLiteralUnique) {
  const Cover f = cover_of(4, {"1-1-", "1--1", "-11-", "-1-1"});
  const Cover k = level0_kernel(f);
  EXPECT_TRUE(common_cube(k) == Cube::full(4) || k.size() < 2);
}

TEST(Factor, ConstantCovers) {
  const FactorTree zero = factor(Cover(3));
  EXPECT_EQ(zero.kind, FactorTree::Kind::kConst0);
  Cover full(3);
  full.add(Cube::full(3));
  const FactorTree one = factor(full);
  EXPECT_EQ(one.kind, FactorTree::Kind::kConst1);
}

TEST(Factor, SingleCube) {
  const FactorTree t = factor(cover_of(3, {"10-"}));
  EXPECT_EQ(factored_literal_count(t), 2u);
  for (std::uint32_t m = 0; m < 8; ++m)
    EXPECT_EQ(oracle::evaluate(t, m), Cube::parse("10-").contains_minterm(m, 3));
}

TEST(Factor, SharesCommonLiteral) {
  // a b + a c factors as a (b + c): 3 literals instead of 4.
  const FactorTree t = factor(cover_of(3, {"11-", "1-1"}));
  EXPECT_EQ(factored_literal_count(t), 3u);
}

TEST(Factor, ClassicKernelExample) {
  // ac + ad + bc + bd = (a+b)(c+d): 4 literals instead of 8.
  const Cover f = cover_of(4, {"1-1-", "1--1", "-11-", "-1-1"});
  const FactorTree t = factor(f);
  EXPECT_LE(factored_literal_count(t), 4u);
  for (std::uint32_t m = 0; m < 16; ++m)
    EXPECT_EQ(oracle::evaluate(t, m), f.covers_minterm(m));
}

TEST(Factor, SemanticsPreservedOnRandomCovers) {
  Rng rng(139);
  for (int trial = 0; trial < 30; ++trial) {
    const unsigned n = 4 + static_cast<unsigned>(rng.below(3));
    Cover cover(n);
    const std::uint64_t cubes = rng.below(8);
    for (std::uint64_t i = 0; i < cubes; ++i) {
      Cube c = Cube::full(n);
      for (unsigned v = 0; v < n; ++v) {
        const auto r = rng.below(3);
        if (r != 2) c = c.restricted(v, r == 1);
      }
      cover.add(c);
    }
    const FactorTree t = factor(cover);
    for (std::uint32_t m = 0; m < num_minterms(n); ++m)
      EXPECT_EQ(oracle::evaluate(t, m), cover.covers_minterm(m))
          << "trial " << trial << " minterm " << m;
  }
}

TEST(Factor, NeverIncreasesLiterals) {
  Rng rng(149);
  for (int trial = 0; trial < 20; ++trial) {
    TernaryTruthTable f(6);
    for (std::uint32_t m = 0; m < f.size(); ++m)
      f.set_phase(m, rng.flip(0.3) ? Phase::kOne : Phase::kZero);
    const Cover cover = minimize(f);
    const FactorTree t = factor(cover);
    EXPECT_LE(factored_literal_count(t), cover.literal_count());
  }
}

TEST(Factor, ToStringSmoke) {
  const FactorTree t = factor(cover_of(2, {"11", "00"}));
  const std::string s = to_string(t);
  EXPECT_NE(s.find("x0"), std::string::npos);
  EXPECT_NE(s.find("x1"), std::string::npos);
}

}  // namespace
}  // namespace rdc
