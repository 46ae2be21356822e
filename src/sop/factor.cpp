#include "sop/factor.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/bits.hpp"
#include "sop/division.hpp"
#include "sop/kernel.hpp"

namespace rdc {
namespace {

FactorTree cube_to_tree(const Cube& c, unsigned n) {
  std::vector<FactorTree> literals;
  literals.reserve(c.literal_count(n));
  for (unsigned v = 0; v < n; ++v) {
    const bool has0 = test_bit(c.mask0, v);
    const bool has1 = test_bit(c.mask1, v);
    if (has0 != has1) literals.push_back(FactorTree::literal(v, has1));
  }
  if (literals.empty()) return FactorTree::constant(true);
  if (literals.size() == 1) return literals.front();
  FactorTree t;
  t.kind = FactorTree::Kind::kAnd;
  t.children = std::move(literals);
  return t;
}

FactorTree make_or(std::vector<FactorTree> children) {
  if (children.empty()) return FactorTree::constant(false);
  if (children.size() == 1) return std::move(children.front());
  FactorTree t;
  t.kind = FactorTree::Kind::kOr;
  t.children = std::move(children);
  return t;
}

FactorTree make_and(std::vector<FactorTree> children) {
  if (children.empty()) return FactorTree::constant(true);
  if (children.size() == 1) return std::move(children.front());
  FactorTree t;
  t.kind = FactorTree::Kind::kAnd;
  t.children = std::move(children);
  return t;
}

/// Most frequent literal (>= 2 occurrences), or nullopt. Ties go to the
/// lowest variable, and on one variable to the negative literal.
std::optional<std::pair<unsigned, bool>> best_literal(const Cover& f) {
  const LiteralCounts counts = literal_counts(f);
  std::optional<std::pair<unsigned, bool>> best;
  unsigned best_freq = 1;
  for (unsigned v = 0; v < f.num_inputs(); ++v)
    for (const bool positive : {false, true})
      if (counts[2 * v + (positive ? 1 : 0)] > best_freq) {
        best_freq = counts[2 * v + (positive ? 1 : 0)];
        best = {v, positive};
      }
  return best;
}

FactorTree factor_rec(const Cover& f) {
  const unsigned n = f.num_inputs();
  if (f.empty_cover()) return FactorTree::constant(false);
  if (f.size() == 1) return cube_to_tree(f.cube(0), n);

  // Pull out the common cube first: F = cc * F'.
  const Cube cc = common_cube(f);
  if (cc != Cube::full(n)) {
    std::vector<FactorTree> parts;
    parts.push_back(cube_to_tree(cc, n));
    parts.push_back(factor_rec(make_cube_free(f)));
    return make_and(std::move(parts));
  }

  // Prefer a multi-cube kernel divisor when one saves literals; fall back
  // to the most frequent literal; fall back to a flat OR.
  const auto lit = best_literal(f);
  if (!lit) {
    std::vector<FactorTree> cubes;
    cubes.reserve(f.size());
    for (const Cube& c : f.cubes()) cubes.push_back(cube_to_tree(c, n));
    return make_or(std::move(cubes));
  }

  // Candidate kernel divisor: the level-0 kernel of the quotient by the
  // best literal often captures a shared multi-cube factor.
  const DivisionResult by_lit =
      divide_by_literal(f, lit->first, lit->second);
  Cover divisor(n);
  const Cover k = level0_kernel(by_lit.quotient);
  if (k.size() >= 2) {
    const DivisionResult by_kernel = weak_divide(f, k);
    if (by_kernel.quotient.size() >= 2) {
      std::vector<FactorTree> product;
      product.push_back(factor_rec(by_kernel.quotient));
      product.push_back(factor_rec(k));
      std::vector<FactorTree> sum;
      sum.push_back(make_and(std::move(product)));
      if (!by_kernel.remainder.empty_cover())
        sum.push_back(factor_rec(by_kernel.remainder));
      return make_or(std::move(sum));
    }
  }

  std::vector<FactorTree> product;
  product.push_back(FactorTree::literal(lit->first, lit->second));
  product.push_back(factor_rec(by_lit.quotient));
  std::vector<FactorTree> sum;
  sum.push_back(make_and(std::move(product)));
  if (!by_lit.remainder.empty_cover())
    sum.push_back(factor_rec(by_lit.remainder));
  return make_or(std::move(sum));
}

}  // namespace

FactorTree factor(const Cover& f) { return factor_rec(f); }

std::uint64_t factored_literal_count(const FactorTree& tree) {
  switch (tree.kind) {
    case FactorTree::Kind::kConst0:
    case FactorTree::Kind::kConst1:
      return 0;
    case FactorTree::Kind::kLiteral:
      return 1;
    case FactorTree::Kind::kAnd:
    case FactorTree::Kind::kOr: {
      std::uint64_t total = 0;
      for (const FactorTree& child : tree.children)
        total += factored_literal_count(child);
      return total;
    }
  }
  return 0;
}

std::string to_string(const FactorTree& tree) {
  switch (tree.kind) {
    case FactorTree::Kind::kConst0:
      return "0";
    case FactorTree::Kind::kConst1:
      return "1";
    case FactorTree::Kind::kLiteral:
      return (tree.positive ? "x" : "!x") + std::to_string(tree.var);
    case FactorTree::Kind::kAnd:
    case FactorTree::Kind::kOr: {
      const char* op = tree.kind == FactorTree::Kind::kAnd ? " & " : " | ";
      std::string s = "(";
      for (std::size_t i = 0; i < tree.children.size(); ++i) {
        if (i > 0) s += op;
        s += to_string(tree.children[i]);
      }
      return s + ")";
    }
  }
  return "?";
}

}  // namespace rdc
