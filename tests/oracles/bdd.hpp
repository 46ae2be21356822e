// Reduced ordered binary decision diagrams with complement edges, kept as
// the symbolic test oracle. The paper holds the on-, off- and DC-sets in
// CUDD; the library holds them as truth tables, and the tests check its
// metrics against the same sets held here. Supports the operations those
// metrics need: ITE-based Boolean connectives, variable flipping (for
// 1-Hamming-distance shifted sets), satisfying-minterm counting, and
// conversion from truth tables.
//
// Nodes are never garbage collected; managers are cheap to create and are
// expected to live for the duration of one analysis.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "tt/ternary_function.hpp"

namespace rdc::oracle {

/// An edge into the BDD: node index shifted left once, LSB = complement bit.
class BddEdge {
 public:
  constexpr BddEdge() = default;
  constexpr BddEdge(std::uint32_t node, bool complemented)
      : bits_((node << 1) | (complemented ? 1u : 0u)) {}

  std::uint32_t node() const { return bits_ >> 1; }
  bool complemented() const { return bits_ & 1u; }
  BddEdge operator!() const {
    BddEdge e;
    e.bits_ = bits_ ^ 1u;
    return e;
  }
  bool operator==(const BddEdge&) const = default;
  std::uint32_t raw() const { return bits_; }

 private:
  std::uint32_t bits_ = 0;
};

class BddManager {
 public:
  explicit BddManager(unsigned num_vars);

  unsigned num_vars() const { return num_vars_; }

  BddEdge one() const { return BddEdge(0, false); }
  BddEdge zero() const { return BddEdge(0, true); }

  /// The projection function for variable `v` (x_v).
  BddEdge var(unsigned v) const { return vars_[v]; }

  BddEdge bdd_and(BddEdge f, BddEdge g);
  BddEdge bdd_or(BddEdge f, BddEdge g);
  BddEdge bdd_xor(BddEdge f, BddEdge g);
  BddEdge ite(BddEdge f, BddEdge g, BddEdge h);

  /// f with variable v replaced by !v everywhere: g(x) = f(x ^ e_v).
  BddEdge flip_var(BddEdge f, unsigned v);

  /// Shannon cofactor f|_{v = value} when v is at or above f's top level
  /// (the common case inside ITE).
  BddEdge cofactor(BddEdge f, unsigned v, bool value);

  /// General restriction f|_{v = value} for any variable (recursive,
  /// memoized).
  BddEdge restrict_var(BddEdge f, unsigned v, bool value);

  /// Number of satisfying assignments over all num_vars() variables.
  double sat_count(BddEdge f);

  /// Evaluates f on a full assignment (bit v of `minterm` = value of x_v).
  bool evaluate(BddEdge f, std::uint32_t minterm) const;

  /// Characteristic function of a phase set of a truth table.
  BddEdge from_phase(const TernaryTruthTable& f, Phase phase);

  /// Number of distinct nodes reachable from f (including the terminal).
  std::size_t node_count(BddEdge f) const;

  /// Total nodes allocated in the manager.
  std::size_t size() const { return nodes_.size(); }

 private:
  struct Node {
    unsigned var;
    BddEdge lo;
    BddEdge hi;
  };

  /// Canonical node constructor (reduction + complement-edge normalization:
  /// the hi edge of a stored node is never complemented).
  BddEdge mk(unsigned var, BddEdge lo, BddEdge hi);

  BddEdge build_from_phase(const TernaryTruthTable& f, Phase phase,
                           unsigned var, std::uint32_t prefix);

  unsigned var_of(BddEdge e) const {
    // Terminal gets a rank below every real variable.
    return e.node() == 0 ? num_vars_ : nodes_[e.node()].var;
  }

  struct TripleKey {
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::uint32_t c = 0;
    bool operator==(const TripleKey&) const = default;
  };
  struct TripleHash {
    std::size_t operator()(const TripleKey& k) const {
      std::uint64_t h = k.a;
      h = h * 0x9e3779b97f4a7c15ull + k.b;
      h = h * 0x9e3779b97f4a7c15ull + k.c;
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };

  unsigned num_vars_;
  std::vector<Node> nodes_;
  std::vector<BddEdge> vars_;
  std::unordered_map<std::uint64_t, std::uint32_t> unique_;
  std::unordered_map<TripleKey, BddEdge, TripleHash> ite_cache_;
  std::unordered_map<std::uint64_t, BddEdge> flip_cache_;
  std::unordered_map<std::uint64_t, BddEdge> restrict_cache_;
  std::unordered_map<std::uint64_t, double> count_cache_;
};

}  // namespace rdc::oracle
