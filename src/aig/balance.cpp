#include "aig/balance.hpp"

#include <algorithm>
#include <queue>
#include <unordered_map>
#include <vector>

namespace rdc {
namespace {

class Balancer {
 public:
  explicit Balancer(const Aig& src) : src_(src), dst_(src.num_inputs()) {
    dst_levels_.resize(1 + src.num_inputs(), 0);
  }

  Aig run() {
    for (std::uint32_t out : src_.outputs())
      dst_.add_output(balance_literal(out));
    return std::move(dst_);
  }

 private:
  unsigned level_of(std::uint32_t dst_lit) const {
    return dst_levels_[aiglit::node_of(dst_lit)];
  }

  /// Records the level of a freshly created (or strash-shared) node.
  void note_level(std::uint32_t dst_lit, unsigned level) {
    const std::uint32_t node = aiglit::node_of(dst_lit);
    if (node >= dst_levels_.size()) dst_levels_.resize(node + 1, 0);
    dst_levels_[node] = std::max(dst_levels_[node], level);
  }

  /// Collects the leaves of the maximal AND-tree rooted at `node`
  /// (descending only through non-complemented AND edges).
  void collect_supergate(std::uint32_t node, std::vector<std::uint32_t>& leaves) {
    for (const std::uint32_t fanin :
         {src_.fanin0(node), src_.fanin1(node)}) {
      const std::uint32_t child = aiglit::node_of(fanin);
      if (!aiglit::is_complemented(fanin) && src_.is_and(child)) {
        collect_supergate(child, leaves);
      } else {
        leaves.push_back(fanin);
      }
    }
  }

  std::uint32_t balance_literal(std::uint32_t src_lit) {
    const std::uint32_t node = aiglit::node_of(src_lit);
    const bool complemented = aiglit::is_complemented(src_lit);
    if (!src_.is_and(node)) return src_lit;  // constant or input

    if (const auto it = memo_.find(node); it != memo_.end())
      return complemented ? aiglit::negate(it->second) : it->second;

    std::vector<std::uint32_t> leaves;
    collect_supergate(node, leaves);

    // Balance each leaf, then combine lowest-level pairs first.
    using Entry = std::pair<unsigned, std::uint32_t>;  // (level, dst lit)
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    for (const std::uint32_t leaf : leaves) {
      const std::uint32_t dst_lit = balance_literal(leaf);
      heap.emplace(level_of(dst_lit), dst_lit);
    }
    while (heap.size() > 1) {
      const Entry a = heap.top();
      heap.pop();
      const Entry b = heap.top();
      heap.pop();
      const std::uint32_t combined = dst_.make_and(a.second, b.second);
      const unsigned level = aiglit::node_of(combined) == 0 ||
                                     !dst_.is_and(aiglit::node_of(combined))
                                 ? level_of(combined)
                                 : std::max(a.first, b.first) + 1;
      note_level(combined, level);
      heap.emplace(level_of(combined), combined);
    }
    const std::uint32_t result = heap.top().second;
    memo_.emplace(node, result);
    return complemented ? aiglit::negate(result) : result;
  }

  const Aig& src_;
  Aig dst_;
  std::vector<unsigned> dst_levels_;
  std::unordered_map<std::uint32_t, std::uint32_t> memo_;
};

}  // namespace

Aig balance(const Aig& src) { return Balancer(src).run(); }

}  // namespace rdc
