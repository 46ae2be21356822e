#include "decomp/renode.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "aig/simulate.hpp"
#include "espresso/espresso.hpp"
#include "reliability/assignment.hpp"
#include "sop/factor.hpp"

namespace rdc {
namespace {

using aiglit::is_complemented;
using aiglit::negate;
using aiglit::node_of;

/// Primary-output values on input vector `minterm`, with the value of AND
/// node `flipped` (0: none) complemented — the scalar single-fault injector
/// behind the observability test and the masking metric.
std::vector<bool> output_values(const Aig& aig, std::uint32_t minterm,
                                std::uint32_t flipped = 0) {
  std::vector<bool> value(aig.num_nodes(), false);
  for (unsigned i = 0; i < aig.num_inputs(); ++i)
    value[1 + i] = (minterm >> i) & 1u;
  for (std::uint32_t node = aig.num_inputs() + 1; node < aig.num_nodes();
       ++node) {
    const std::uint32_t f0 = aig.fanin0(node);
    const std::uint32_t f1 = aig.fanin1(node);
    const bool v0 = value[node_of(f0)] != is_complemented(f0);
    const bool v1 = value[node_of(f1)] != is_complemented(f1);
    value[node] = (v0 && v1) != (node == flipped);
  }
  std::vector<bool> outs;
  outs.reserve(aig.outputs().size());
  for (const std::uint32_t lit : aig.outputs())
    outs.push_back(value[node_of(lit)] != is_complemented(lit));
  return outs;
}

/// Whether flipping AND node `node` on input vector `minterm` changes a
/// primary output.
bool flip_reaches_output(const Aig& aig, std::uint32_t minterm,
                         std::uint32_t node) {
  return output_values(aig, minterm) != output_values(aig, minterm, node);
}

void check_input_count(const Aig& aig, const char* caller) {
  if (aig.num_inputs() > TernaryTruthTable::kMaxInputs)
    throw std::invalid_argument(std::string(caller) + ": too many inputs");
}

/// One walk over the tree roots in topological order. Roots after the first
/// `skip` are rewritten against their don't cares until `limit` rewrites
/// are made; every other root is copied verbatim.
class Renoder {
 public:
  /// `observability`: ODCs join the SDCs in each node's DC set.
  Renoder(const Aig& aig, const RenodeOptions& options, bool observability)
      : aig_(aig),
        options_(options),
        observability_(observability),
        sim_(aig),
        dst_(aig.num_inputs()) {}

  struct Walk {
    Aig network;
    unsigned roots = 0;         ///< tree roots visited
    unsigned rewrites = 0;
    unsigned last_rewrite = 0;  ///< 1-based number of the last rewritten root
    std::uint64_t sdc_patterns = 0;  ///< over the rewritten roots
    std::uint64_t odc_patterns = 0;
    std::uint64_t dcs_assigned = 0;
  };

  Walk run(unsigned skip, unsigned limit) {
    mark_roots();
    Walk walk{Aig(aig_.num_inputs())};
    for (std::uint32_t node = aig_.num_inputs() + 1; node < aig_.num_nodes();
         ++node) {
      if (!is_root_[node]) continue;
      ++walk.roots;
      if (walk.rewrites < limit && walk.roots > skip &&
          try_rewrite(node, walk))
        continue;
      mapping_[node] = copy_edge(aiglit::make(node, false), node);
    }
    for (const std::uint32_t out : aig_.outputs())
      dst_.add_output(map_literal(out));
    walk.network = std::move(dst_);
    return walk;
  }

 private:
  void mark_roots() {
    const std::vector<unsigned> fanout = aig_.fanout_counts();
    is_root_.assign(aig_.num_nodes(), false);
    for (std::uint32_t node = aig_.num_inputs() + 1; node < aig_.num_nodes();
         ++node)
      is_root_[node] = fanout[node] > 1;
    for (const std::uint32_t out : aig_.outputs())
      if (aig_.is_and(node_of(out))) is_root_[node_of(out)] = true;
  }

  /// Boundary signal nodes of the tree rooted at `root` (distinct, in DFS
  /// discovery order).
  std::vector<std::uint32_t> collect_leaves(std::uint32_t root) const {
    std::vector<std::uint32_t> leaves;
    std::vector<std::uint32_t> stack{root};
    while (!stack.empty()) {
      const std::uint32_t node = stack.back();
      stack.pop_back();
      for (const std::uint32_t edge :
           {aig_.fanin0(node), aig_.fanin1(node)}) {
        const std::uint32_t child = node_of(edge);
        if (aig_.is_and(child) && !is_root_[child]) {
          stack.push_back(child);
        } else if (std::find(leaves.begin(), leaves.end(), child) ==
                   leaves.end()) {
          leaves.push_back(child);
        }
      }
    }
    return leaves;
  }

  /// Local function of `root` over `leaves`. Patterns no input vector
  /// produces are SDCs; with observability on, patterns whose every vector
  /// hides a flip of the root from the outputs are ODCs. Both stay DC.
  TernaryTruthTable extract_local(std::uint32_t root,
                                  const std::vector<std::uint32_t>& leaves,
                                  std::uint64_t& sdc,
                                  std::uint64_t& odc) const {
    const unsigned k = static_cast<unsigned>(leaves.size());
    TernaryTruthTable local(k);
    for (std::uint32_t p = 0; p < local.size(); ++p)
      local.set_phase(p, Phase::kDc);
    std::vector<bool> observed(local.size(), false);
    // observable[p]: a flip of the root reaches an output on some vector
    // producing p; assumed for every p when ODCs are off.
    std::vector<bool> observable(local.size(), !observability_);
    for (std::uint32_t m = 0; m < sim_.num_vectors(); ++m) {
      std::uint32_t pattern = 0;
      for (unsigned i = 0; i < k; ++i)
        if (sim_.literal_value(aiglit::make(leaves[i], false), m))
          pattern |= 1u << i;
      const bool root_value =
          sim_.literal_value(aiglit::make(root, false), m);
      local.set_phase(pattern, root_value ? Phase::kOne : Phase::kZero);
      observed[pattern] = true;
      if (!observable[pattern] && flip_reaches_output(aig_, m, root))
        observable[pattern] = true;
    }
    for (std::uint32_t p = 0; p < local.size(); ++p) {
      if (!observed[p]) {
        ++sdc;
      } else if (!observable[p]) {
        local.set_phase(p, Phase::kDc);
        ++odc;
      }
    }
    return local;
  }

  /// Resynthesizes `root` against its DCs; false (nothing built) if the
  /// node is too wide or has no don't cares.
  bool try_rewrite(std::uint32_t root, Walk& walk) {
    const std::vector<std::uint32_t> leaves = collect_leaves(root);
    if (leaves.empty() || leaves.size() > options_.max_node_inputs)
      return false;
    std::uint64_t sdc = 0;
    std::uint64_t odc = 0;
    TernaryTruthTable local = extract_local(root, leaves, sdc, odc);
    if (sdc + odc == 0) return false;
    if (options_.reliability_assign)
      walk.dcs_assigned += lcf_assign(local, options_.lcf_threshold).assigned;

    const Cover cover = minimize(local);
    std::vector<std::uint32_t> leaf_lits;
    leaf_lits.reserve(leaves.size());
    for (const std::uint32_t leaf : leaves)
      leaf_lits.push_back(map_literal(aiglit::make(leaf, false)));
    mapping_[root] = dst_.build(factor(cover), leaf_lits);

    ++walk.rewrites;
    walk.last_rewrite = walk.roots;
    walk.sdc_patterns += sdc;
    walk.odc_patterns += odc;
    return true;
  }

  /// Old literal -> new literal, for PIs, constants and processed roots.
  std::uint32_t map_literal(std::uint32_t lit) const {
    const std::uint32_t node = node_of(lit);
    std::uint32_t mapped;
    if (node == 0) {
      mapped = aiglit::kFalse;
    } else if (!aig_.is_and(node)) {
      mapped = dst_.input_literal(node - 1);
    } else {
      mapped = mapping_.at(node);
    }
    return is_complemented(lit) ? negate(mapped) : mapped;
  }

  /// Verbatim structural copy of `edge` within the tree of `current_root`.
  std::uint32_t copy_edge(std::uint32_t edge, std::uint32_t current_root) {
    const std::uint32_t node = node_of(edge);
    if (!aig_.is_and(node) || (is_root_[node] && node != current_root))
      return map_literal(edge);
    const std::uint32_t mapped =
        dst_.make_and(copy_edge(aig_.fanin0(node), current_root),
                      copy_edge(aig_.fanin1(node), current_root));
    return is_complemented(edge) ? negate(mapped) : mapped;
  }

  const Aig& aig_;
  RenodeOptions options_;
  bool observability_;
  AigSimulator sim_;
  Aig dst_;
  std::vector<bool> is_root_;
  std::unordered_map<std::uint32_t, std::uint32_t> mapping_;
};

}  // namespace

RenodeResult renode_and_assign(const Aig& aig, const RenodeOptions& options) {
  check_input_count(aig, "renode_and_assign");
  Renoder::Walk walk = Renoder(aig, options, false)
                           .run(0, std::numeric_limits<unsigned>::max());
  return {std::move(walk.network), walk.roots, walk.rewrites,
          walk.sdc_patterns, walk.dcs_assigned};
}

OdcRenodeResult renode_with_odcs(const Aig& aig, const RenodeOptions& options,
                                 unsigned max_rewrites) {
  check_input_count(aig, "renode_with_odcs");
  OdcRenodeResult result{aig};
  unsigned skip = 0;
  while (result.rewrites < max_rewrites) {
    Renoder::Walk walk = Renoder(result.network, options, true).run(skip, 1);
    if (walk.rewrites == 0) break;
    ++result.rewrites;
    result.sdc_patterns += walk.sdc_patterns;
    result.odc_patterns += walk.odc_patterns;
    result.dcs_assigned += walk.dcs_assigned;
    result.network = std::move(walk.network);
    skip = walk.last_rewrite;
  }
  return result;
}

double internal_error_rate(const Aig& aig, unsigned samples, Rng& rng) {
  const std::uint32_t first_and = aig.num_inputs() + 1;
  const std::uint32_t num_ands =
      static_cast<std::uint32_t>(aig.num_nodes()) - first_and;
  if (num_ands == 0 || samples == 0) return 0.0;

  unsigned propagated = 0;
  for (unsigned s = 0; s < samples; ++s) {
    const auto m =
        static_cast<std::uint32_t>(rng.below(num_minterms(aig.num_inputs())));
    const std::uint32_t node =
        first_and + static_cast<std::uint32_t>(rng.below(num_ands));
    if (flip_reaches_output(aig, m, node)) ++propagated;
  }
  return static_cast<double>(propagated) / samples;
}

}  // namespace rdc
