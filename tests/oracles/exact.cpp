#include "oracles/exact.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <set>
#include <utility>

#include "exec/budget.hpp"

namespace rdc::oracle {
namespace {

/// Branch-and-bound minimum unate covering.
class Covering {
 public:
  Covering(std::vector<Cube> primes, const TernaryTruthTable& f)
      : primes_(std::move(primes)), num_inputs_(f.num_inputs()) {
    // Rows: on-set minterms; row_cols_[r] = primes covering row r.
    for (std::uint32_t m = 0; m < f.size(); ++m) {
      if (!f.is_on(m)) continue;
      std::vector<std::uint32_t> cols;
      for (std::uint32_t c = 0; c < primes_.size(); ++c)
        if (primes_[c].contains_minterm(m, num_inputs_)) cols.push_back(c);
      row_cols_.push_back(std::move(cols));
    }
  }

  Cover solve() {
    std::vector<bool> row_done(row_cols_.size(), false);
    std::vector<std::uint32_t> chosen;
    best_size_ = std::numeric_limits<std::size_t>::max();
    best_literals_ = std::numeric_limits<std::uint64_t>::max();
    branch(row_done, chosen);

    Cover cover(num_inputs_);
    for (const std::uint32_t c : best_) cover.add(primes_[c]);
    return cover;
  }

 private:
  std::uint64_t literals_of(const std::vector<std::uint32_t>& cols) const {
    std::uint64_t total = 0;
    for (const std::uint32_t c : cols)
      total += primes_[c].literal_count(num_inputs_);
    return total;
  }

  void commit(const std::vector<std::uint32_t>& chosen) {
    const std::uint64_t literals = literals_of(chosen);
    if (chosen.size() < best_size_ ||
        (chosen.size() == best_size_ && literals < best_literals_)) {
      best_size_ = chosen.size();
      best_literals_ = literals;
      best_ = chosen;
    }
  }

  void branch(std::vector<bool>& row_done,
              std::vector<std::uint32_t>& chosen) {
    exec::checkpoint();  // branch-and-bound can blow up; stay cancellable
    if (chosen.size() > best_size_) return;  // cardinality bound

    // Find the uncovered row with the fewest candidate columns.
    std::size_t pick = row_cols_.size();
    std::size_t fewest = std::numeric_limits<std::size_t>::max();
    for (std::size_t r = 0; r < row_cols_.size(); ++r) {
      if (row_done[r]) continue;
      if (row_cols_[r].size() < fewest) {
        fewest = row_cols_[r].size();
        pick = r;
      }
    }
    if (pick == row_cols_.size()) {  // everything covered
      commit(chosen);
      return;
    }
    if (chosen.size() + 1 > best_size_) return;  // bound

    for (const std::uint32_t c : row_cols_[pick]) {
      // Select column c; mark rows it covers.
      std::vector<std::size_t> newly_covered;
      for (std::size_t r = 0; r < row_cols_.size(); ++r) {
        if (row_done[r]) continue;
        if (std::find(row_cols_[r].begin(), row_cols_[r].end(), c) !=
            row_cols_[r].end()) {
          row_done[r] = true;
          newly_covered.push_back(r);
        }
      }
      chosen.push_back(c);
      branch(row_done, chosen);
      chosen.pop_back();
      for (const std::size_t r : newly_covered) row_done[r] = false;
    }
  }

  std::vector<Cube> primes_;
  unsigned num_inputs_;
  std::vector<std::vector<std::uint32_t>> row_cols_;
  std::vector<std::uint32_t> best_;
  std::size_t best_size_ = 0;
  std::uint64_t best_literals_ = 0;
};

}  // namespace

std::vector<Cube> prime_implicants(const TernaryTruthTable& f) {
  const unsigned n = f.num_inputs();

  // Quine-McCluskey over the on ∪ DC set.
  std::set<std::pair<std::uint32_t, std::uint32_t>> current;
  for (std::uint32_t m = 0; m < f.size(); ++m)
    if (!f.is_off(m)) {
      const Cube c = Cube::minterm(m, n);
      current.insert({c.mask0, c.mask1});
    }

  std::vector<Cube> primes;
  while (!current.empty()) {
    std::set<std::pair<std::uint32_t, std::uint32_t>> next;
    std::set<std::pair<std::uint32_t, std::uint32_t>> combined;
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> cubes(
        current.begin(), current.end());
    for (std::size_t i = 0; i < cubes.size(); ++i) {
      const Cube a{cubes[i].first, cubes[i].second};
      const std::uint32_t fixed_a = a.mask0 ^ a.mask1;
      for (std::size_t j = i + 1; j < cubes.size(); ++j) {
        const Cube b{cubes[j].first, cubes[j].second};
        if ((b.mask0 ^ b.mask1) != fixed_a) continue;
        const std::uint32_t diff = (a.mask1 ^ b.mask1) & fixed_a;
        if (std::popcount(diff) != 1) continue;
        const unsigned var = static_cast<unsigned>(std::countr_zero(diff));
        const Cube merged = a.expanded(var);
        next.insert({merged.mask0, merged.mask1});
        combined.insert(cubes[i]);
        combined.insert(cubes[j]);
      }
    }
    for (const auto& c : cubes)
      if (!combined.count(c)) primes.push_back(Cube{c.first, c.second});
    current = std::move(next);
  }

  // Keep primes that cover at least one on-set minterm.
  std::vector<Cube> useful;
  for (const Cube& p : primes) {
    bool covers_on = false;
    for (std::uint32_t m = 0; m < f.size() && !covers_on; ++m)
      covers_on = f.is_on(m) && p.contains_minterm(m, f.num_inputs());
    if (covers_on) useful.push_back(p);
  }
  return useful;
}

Cover exact_minimize(const TernaryTruthTable& f) {
  if (f.on_count() == 0) return Cover(f.num_inputs());
  return Covering(prime_implicants(f), f).solve();
}

std::size_t minimum_sop_size(const TernaryTruthTable& f) {
  return exact_minimize(f).size();
}

}  // namespace rdc::oracle
