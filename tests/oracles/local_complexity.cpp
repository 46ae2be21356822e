#include "oracles/local_complexity.hpp"

#include "common/bits.hpp"

namespace rdc::oracle {

unsigned same_phase_neighbors(const NeighborTable& neighbors,
                              const TernaryTruthTable& f,
                              std::uint32_t minterm) {
  const NeighborCounts counts = neighbors.at(minterm);
  switch (f.phase(minterm)) {
    case Phase::kOne:
      return counts.on;
    case Phase::kZero:
      return counts.off;
    case Phase::kDc:
      return counts.dc;
  }
  return 0;
}

double local_complexity_factor(const TernaryTruthTable& f,
                               const NeighborTable& neighbors,
                               std::uint32_t minterm) {
  const unsigned n = f.num_inputs();
  std::uint64_t same = 0;
  for (unsigned j = 0; j < n; ++j)
    same += same_phase_neighbors(neighbors, f, flip_bit(minterm, j));
  return static_cast<double>(same) / (static_cast<double>(n) * n);
}

double local_complexity_factor(const TernaryTruthTable& f,
                               std::uint32_t minterm) {
  const NeighborTable neighbors(f);
  return local_complexity_factor(f, neighbors, minterm);
}

}  // namespace rdc::oracle
