#include "espresso/espresso.hpp"

#include <utility>

#include "espresso/expand.hpp"
#include "espresso/irredundant.hpp"
#include "espresso/reduce.hpp"
#include "exec/budget.hpp"
#include "exec/fault.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace rdc {
namespace {

struct Cost {
  std::size_t cubes = 0;
  std::uint64_t literals = 0;
  bool operator<(const Cost& other) const {
    return std::pair(cubes, literals) < std::pair(other.cubes, other.literals);
  }
  bool operator==(const Cost&) const = default;
};

Cost cost_of(const Cover& cover) {
  return Cost{cover.size(), cover.literal_count()};
}

}  // namespace

EspressoResult minimize_bounded(const TernaryTruthTable& f,
                                const EspressoOptions& options) {
  RDC_SPAN("espresso.run");
  obs::count(obs::Counter::kEspressoCalls);
  exec::fault_point(exec::FaultSite::kEspresso);
  const BitVec& dc = f.dc_bits();
  const BitVec off = f.off_bits();
  EspressoResult result;
  Cover current = Cover::from_phase(f, Phase::kOne);
  current.remove_single_cube_contained();
  if (current.empty_cover()) {
    obs::observe(obs::Histo::kEspressoIterations, 0);
    result.cover = current;
    return result;
  }
  // From here on `result.cover` is only ever replaced by a *completed*
  // pass's cover, so a mid-pass budget trip salvages a valid (if less
  // minimized) cover of the on-set.
  result.cover = current;

  unsigned iterations = 0;
  try {
    exec::checkpoint();
    current = expand(current, off);
    current = irredundant(current, dc);
    Cost best = cost_of(current);
    result.cover = current;

    for (unsigned iter = 0; iter < options.max_iterations; ++iter) {
      exec::checkpoint();
      ++iterations;
      current = reduce(current, dc);
      current = expand(current, off);
      current = irredundant(current, dc);
      const Cost c = cost_of(current);
      if (c < best) {
        best = c;
        result.cover = current;
      } else {
        break;  // converged (or oscillating): keep the best seen
      }
    }
  } catch (const exec::StatusError& error) {
    if (!exec::is_budget_code(error.status().code())) throw;
    result.status = error.status();
    result.status.with_context("espresso");
    result.partial = true;
  }
  obs::count(obs::Counter::kEspressoIterations, iterations);
  obs::observe(obs::Histo::kEspressoIterations, iterations);
  return result;
}

Cover minimize(const TernaryTruthTable& f, const EspressoOptions& options) {
  EspressoResult result = minimize_bounded(f, options);
  if (result.partial) throw exec::StatusError(std::move(result.status));
  return std::move(result.cover);
}

std::size_t minimal_sop_size(const TernaryTruthTable& f) {
  return minimize(f).size();
}

std::size_t minimal_sop_size(const IncompleteSpec& spec) {
  std::size_t total = 0;
  for (const auto& f : spec.outputs()) total += minimal_sop_size(f);
  return total;
}

Cover conventional_assign(TernaryTruthTable& f,
                          const EspressoOptions& options) {
  const Cover cover = minimize(f, options);
  obs::count(obs::Counter::kDcConventionalAssigned, f.dc_count());
  const BitVec covered = cover.minterm_bits();
  for (std::uint32_t m : f.dc_minterms())
    f.set_phase(m, covered.get(m) ? Phase::kOne : Phase::kZero);
  return cover;
}

void conventional_assign(IncompleteSpec& spec) {
  for (auto& f : spec.outputs()) conventional_assign(f);
}

}  // namespace rdc
