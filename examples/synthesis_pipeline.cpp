// Example: a tour of the synthesis substrate, stage by stage.
//
// The stages — ESPRESSO minimization, algebraic factoring, AIG
// construction and balancing, technology mapping — are driven through the
// pass manager (flow/pass.hpp): one shared Design carries the evolving
// artifacts, and each stage is a one-pass pipeline spec run over it, so the
// intermediates a synthesis developer would inspect are read straight off
// the Design between passes.
#include <cstdio>
#include <utility>

#include "aig/simulate.hpp"
#include "common/rng.hpp"
#include "flow/pipeline.hpp"
#include "sop/factor.hpp"
#include "synthetic/generator.hpp"

namespace {

/// Runs a single-stage pipeline spec over the design; exits on failure.
void run_stage(rdc::flow::Design& design, const char* spec) {
  using namespace rdc;
  exec::Result<flow::Pipeline> pipeline = flow::parse_pipeline(spec);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "%s\n", pipeline.status().to_string().c_str());
    std::exit(1);
  }
  if (exec::Status status = pipeline->run(design); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.to_string().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  using namespace rdc;

  // Stage 0: a 6-input incompletely specified function.
  Rng rng(2026);
  SyntheticOptions options = options_for_target(6, 0.5, 0.6);
  const TernaryTruthTable f = generate_function(options, rng);
  std::printf("Stage 0  specification: %u on / %u off / %u DC minterms\n",
              f.on_count(), f.off_count(), f.dc_count());

  IncompleteSpec spec("tour", f.num_inputs(), 1);
  spec.output(0) = f;
  flow::Design design(std::move(spec));

  // Stage 1: two-level minimization against the DC set.
  run_stage(design, "espresso");
  const Cover& cover = design.covers()[0];
  std::printf("Stage 1  ESPRESSO: %zu implicants, %llu literals\n",
              cover.size(),
              static_cast<unsigned long long>(cover.literal_count()));
  for (std::size_t i = 0; i < cover.size() && i < 6; ++i)
    std::printf("         cube %zu: %s\n", i,
                cover.cube(i).to_string(f.num_inputs()).c_str());
  if (cover.size() > 6) std::printf("         ... (%zu more)\n",
                                    cover.size() - 6);

  // Stage 2: algebraic factoring.
  run_stage(design, "factor");
  const FactorTree& tree = design.factors()[0];
  std::printf("Stage 2  factored form (%llu literals): %s\n",
              static_cast<unsigned long long>(factored_literal_count(tree)),
              to_string(tree).c_str());

  // Stage 3: AIG, then balance. Re-running `aig` later rebuilds from the
  // factor trees, so keep the unbalanced depth before balancing.
  run_stage(design, "aig");
  const std::size_t unbalanced_ands = design.aig().num_ands();
  const unsigned unbalanced_depth = design.aig().depth();
  run_stage(design, "balance");
  std::printf("Stage 3  AIG: %zu AND nodes, depth %u (balanced: depth %u)\n",
              unbalanced_ands, unbalanced_depth, design.aig().depth());

  // Stage 4: technology mapping, both objectives. The balanced AIG is
  // still valid on the design, so each map pass just re-targets it.
  for (const auto& [label, map_spec] :
       {std::pair{"area ", "map:power | analyze"},
        std::pair{"delay", "map:delay | analyze"}}) {
    run_stage(design, map_spec);
    const NetlistStats& stats = design.stats;
    std::printf(
        "Stage 4  map (%s): %zu gates, area %.1f um^2, delay %.0f ps, "
        "power %.2f uW\n",
        label, stats.gates, stats.area, stats.delay_ps, stats.power_uw);

    // Functional sign-off: netlist vs original specification's care set.
    const TernaryTruthTable mapped = design.netlist().output_table(0);
    bool ok = true;
    for (std::uint32_t m = 0; m < f.size(); ++m)
      if (f.is_care(m) && mapped.is_on(m) != f.is_on(m)) ok = false;
    std::printf("         care-set equivalence: %s\n",
                ok ? "PASS" : "FAIL");
  }

  // Gate inventory of the last (delay-) mapped netlist.
  const CellLibrary& lib = design.library();
  std::printf("Stage 5  cell inventory:");
  std::size_t counts[32] = {};
  for (const Gate& g : design.netlist().gates())
    ++counts[static_cast<std::size_t>(g.kind)];
  for (const Cell& cell : lib.cells())
    if (counts[static_cast<std::size_t>(cell.kind)] > 0)
      std::printf(" %s x%zu", cell.name.c_str(),
                  counts[static_cast<std::size_t>(cell.kind)]);
  std::printf("\n");
  return 0;
}
