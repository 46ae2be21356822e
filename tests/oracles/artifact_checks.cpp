#include "oracles/artifact_checks.hpp"

#include "common/bits.hpp"

namespace rdc::oracle {

bool cover_is_valid_for(const Cover& cover, const TernaryTruthTable& f) {
  const BitVec covered = cover.minterm_bits();
  return popcount_and(covered, f.on_bits()) == f.on_bits().count() &&
         popcount_and(covered, f.off_bits()) == 0;
}

bool evaluate(const FactorTree& tree, std::uint32_t minterm) {
  switch (tree.kind) {
    case FactorTree::Kind::kConst0:
      return false;
    case FactorTree::Kind::kConst1:
      return true;
    case FactorTree::Kind::kLiteral:
      return test_bit(minterm, tree.var) == tree.positive;
    case FactorTree::Kind::kAnd:
      for (const FactorTree& child : tree.children)
        if (!evaluate(child, minterm)) return false;
      return true;
    case FactorTree::Kind::kOr:
      for (const FactorTree& child : tree.children)
        if (evaluate(child, minterm)) return true;
      return false;
  }
  return false;
}

}  // namespace rdc::oracle
