#include "oracles/bdd.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_set>

namespace rdc::oracle {
namespace {

std::uint64_t pair_key(std::uint32_t a, std::uint32_t b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

}  // namespace

BddManager::BddManager(unsigned num_vars) : num_vars_(num_vars) {
  if (num_vars == 0 || num_vars > 30)
    throw std::invalid_argument("BddManager supports 1..30 variables");
  nodes_.push_back(Node{num_vars_, BddEdge(), BddEdge()});  // terminal ONE
  vars_.reserve(num_vars);
  for (unsigned v = 0; v < num_vars; ++v)
    vars_.push_back(mk(v, zero(), one()));
}

BddEdge BddManager::mk(unsigned var, BddEdge lo, BddEdge hi) {
  if (lo == hi) return lo;
  // Canonical form: the hi edge is never complemented.
  if (hi.complemented()) return !mk(var, !lo, !hi);

  // Pack (var, lo, hi) into a collision-free 64-bit key.
  if (lo.raw() >= (1u << 28) || hi.raw() >= (1u << 28))
    throw std::length_error("BddManager: node table exceeded 2^27 nodes");
  const std::uint64_t key = (static_cast<std::uint64_t>(var) << 56) |
                            (static_cast<std::uint64_t>(lo.raw()) << 28) |
                            hi.raw();
  if (const auto it = unique_.find(key); it != unique_.end())
    return BddEdge(it->second, false);
  const auto index = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(Node{var, lo, hi});
  unique_.emplace(key, index);
  return BddEdge(index, false);
}

BddEdge BddManager::cofactor(BddEdge f, unsigned v, bool value) {
  if (var_of(f) != v) {
    // Ordered BDD: if v is not the top variable it either appears deeper
    // (handled by recursion in the callers) or not at all.
    return f;
  }
  const Node& node = nodes_[f.node()];
  const BddEdge child = value ? node.hi : node.lo;
  return f.complemented() ? !child : child;
}

BddEdge BddManager::ite(BddEdge f, BddEdge g, BddEdge h) {
  // Terminal cases.
  if (f == one()) return g;
  if (f == zero()) return h;
  if (g == h) return g;
  if (g == one() && h == zero()) return f;
  if (g == zero() && h == one()) return !f;
  // Canonicalize for cache efficiency and correctness of complement use:
  // first ensure f is not complemented, then g.
  if (f.complemented()) return ite(!f, h, g);
  if (g.complemented()) return !ite(f, !g, !h);

  const TripleKey key{f.raw(), g.raw(), h.raw()};
  if (const auto it = ite_cache_.find(key); it != ite_cache_.end())
    return it->second;

  const unsigned v = std::min({var_of(f), var_of(g), var_of(h)});
  const BddEdge r0 = ite(cofactor(f, v, false), cofactor(g, v, false),
                         cofactor(h, v, false));
  const BddEdge r1 =
      ite(cofactor(f, v, true), cofactor(g, v, true), cofactor(h, v, true));
  const BddEdge result = mk(v, r0, r1);
  ite_cache_.emplace(key, result);
  return result;
}

BddEdge BddManager::bdd_and(BddEdge f, BddEdge g) { return ite(f, g, zero()); }
BddEdge BddManager::bdd_or(BddEdge f, BddEdge g) { return ite(f, one(), g); }
BddEdge BddManager::bdd_xor(BddEdge f, BddEdge g) { return ite(f, !g, g); }

BddEdge BddManager::restrict_var(BddEdge f, unsigned v, bool value) {
  if (var_of(f) > v) return f;  // ordered: v cannot occur below
  if (var_of(f) == v) return cofactor(f, v, value);
  if (f.complemented()) return !restrict_var(!f, v, value);

  const std::uint64_t key = (static_cast<std::uint64_t>(f.raw()) << 7) |
                            (static_cast<std::uint64_t>(v) << 1) |
                            (value ? 1u : 0u);
  if (const auto it = restrict_cache_.find(key); it != restrict_cache_.end())
    return it->second;
  const Node node = nodes_[f.node()];
  const BddEdge result = mk(node.var, restrict_var(node.lo, v, value),
                            restrict_var(node.hi, v, value));
  restrict_cache_.emplace(key, result);
  return result;
}

BddEdge BddManager::flip_var(BddEdge f, unsigned v) {
  if (var_of(f) > v) return f;  // v below the top var never occurs (ordered)
  if (f.complemented()) return !flip_var(!f, v);

  const std::uint64_t key = pair_key(f.raw(), v);
  if (const auto it = flip_cache_.find(key); it != flip_cache_.end())
    return it->second;

  const Node node = nodes_[f.node()];
  BddEdge result;
  if (node.var == v) {
    result = mk(v, node.hi, node.lo);  // swap the branches of v
  } else {
    result = mk(node.var, flip_var(node.lo, v), flip_var(node.hi, v));
  }
  flip_cache_.emplace(key, result);
  return result;
}

double BddManager::sat_count(BddEdge f) {
  // density(e) = fraction of the 2^num_vars assignments satisfying e.
  // Computed on non-complemented edges; density(!e) = 1 - density(e).
  struct Recurse {
    BddManager& mgr;
    double density(BddEdge e) {
      if (e.complemented()) return 1.0 - density(!e);
      if (e.node() == 0) return 1.0;  // terminal ONE, plain edge
      if (const auto it = mgr.count_cache_.find(e.raw());
          it != mgr.count_cache_.end())
        return it->second;
      const Node& node = mgr.nodes_[e.node()];
      const double d = 0.5 * (density(node.lo) + density(node.hi));
      mgr.count_cache_.emplace(e.raw(), d);
      return d;
    }
  } rec{*this};
  return rec.density(f) * static_cast<double>(1u << num_vars_);
}

bool BddManager::evaluate(BddEdge f, std::uint32_t minterm) const {
  bool complemented = f.complemented();
  std::uint32_t node = f.node();
  while (node != 0) {
    const Node& n = nodes_[node];
    const BddEdge next = ((minterm >> n.var) & 1u) ? n.hi : n.lo;
    complemented ^= next.complemented();
    node = next.node();
  }
  return !complemented;
}

BddEdge BddManager::from_phase(const TernaryTruthTable& f, Phase phase) {
  if (f.num_inputs() != num_vars_)
    throw std::invalid_argument("from_phase: variable count mismatch");
  return build_from_phase(f, phase, 0, 0);
}

BddEdge BddManager::build_from_phase(const TernaryTruthTable& f, Phase phase,
                                     unsigned var, std::uint32_t prefix) {
  if (var == num_vars_) return f.phase(prefix) == phase ? one() : zero();
  const BddEdge lo = build_from_phase(f, phase, var + 1, prefix);
  const BddEdge hi = build_from_phase(f, phase, var + 1, prefix | (1u << var));
  return mk(var, lo, hi);
}

std::size_t BddManager::node_count(BddEdge f) const {
  std::unordered_set<std::uint32_t> seen;
  std::vector<std::uint32_t> stack{f.node()};
  while (!stack.empty()) {
    const std::uint32_t node = stack.back();
    stack.pop_back();
    if (!seen.insert(node).second) continue;
    if (node == 0) continue;
    stack.push_back(nodes_[node].lo.node());
    stack.push_back(nodes_[node].hi.node());
  }
  return seen.size();
}

}  // namespace rdc::oracle
