// End-to-end integration tests on real (Table-1 stand-in) benchmarks:
// the full flow, cross-representation agreement, and SAT sign-off.
#include <gtest/gtest.h>

#include <sstream>

#include "aig/aig.hpp"
#include "benchdata/suite.hpp"
#include "espresso/espresso.hpp"
#include "flow/synthesis_flow.hpp"
#include "flow_specs.hpp"
#include "io/aiger.hpp"
#include "io/blif.hpp"
#include "io/blif_reader.hpp"
#include "mapper/unmap.hpp"
#include "reliability/complexity.hpp"
#include "reliability/error_rate.hpp"
#include "sat/equivalence.hpp"
#include "sop/factor.hpp"

namespace rdc {
namespace {

// One smallish benchmark exercised through everything; the full suite runs
// in the bench harnesses.
const IncompleteSpec& bench_spec() {
  static const IncompleteSpec spec = make_benchmark("bench");
  return spec;
}

TEST(Integration, SuiteBenchmarkSignature) {
  const IncompleteSpec& spec = bench_spec();
  EXPECT_EQ(spec.num_inputs(), 6u);
  EXPECT_EQ(spec.num_outputs(), 8u);
  EXPECT_NEAR(complexity_factor(spec), 0.540, 0.02);
}

TEST(Integration, FullFlowOrdering) {
  const IncompleteSpec& spec = bench_spec();
  const double conventional =
      run_flow(spec, test::paper_flow("assign:conventional")).error_rate;
  const double lcf =
      run_flow(spec, test::paper_flow("assign:lcf(0.55)")).error_rate;
  const double complete =
      run_flow(spec, test::paper_flow("assign:all")).error_rate;
  const RateBounds bounds = exact_error_bounds(spec);
  // complete achieves the minimum; lcf sits between it and conventional.
  EXPECT_NEAR(complete, bounds.min, 1e-12);
  EXPECT_LE(complete, lcf + 1e-12);
  EXPECT_LE(lcf, conventional + 1e-12);
}

TEST(Integration, SatSignOffOfMappedNetlist) {
  const FlowResult result =
      run_flow(bench_spec(), test::paper_flow("assign:lcf(0.55)"));
  // Reference AIG straight from the implementation functions.
  Aig reference(bench_spec().num_inputs());
  for (const auto& f : result.implementation.outputs())
    reference.add_output(reference.build(factor(minimize(f))));
  const Aig mapped = netlist_to_aig(result.netlist);
  EXPECT_TRUE(check_equivalence(reference, mapped).equivalent);
}

TEST(Integration, InterchangeFormatsAgree) {
  const FlowResult result =
      run_flow(bench_spec(), test::paper_flow("assign:conventional"));
  const Aig mapped = netlist_to_aig(result.netlist);

  // AIGER round trip.
  std::ostringstream aag;
  write_aiger(mapped, aag);
  const Aig via_aiger = parse_aiger_string(aag.str());
  EXPECT_TRUE(check_equivalence(mapped, via_aiger).equivalent);

  // BLIF round trip (through the gate-level writer).
  const BlifModel via_blif =
      parse_blif_string(to_blif(result.netlist, "bench"));
  EXPECT_TRUE(check_equivalence(mapped, via_blif.aig).equivalent);
}

TEST(Integration, ResynRecipeEquivalentOnBenchmark) {
  const FlowResult direct =
      run_flow(bench_spec(), test::paper_flow("assign:conventional"));
  const FlowResult refactored =
      run_flow(bench_spec(),
               "assign:conventional | espresso | factor | aig | resyn | "
               "map:power | analyze | error_rate");
  EXPECT_TRUE(check_equivalence(netlist_to_aig(direct.netlist),
                                netlist_to_aig(refactored.netlist))
                  .equivalent);
}

TEST(Integration, ExtractionEquivalentOnBenchmark) {
  const FlowResult plain =
      run_flow(bench_spec(), test::paper_flow("assign:conventional"));
  const FlowResult shared =
      run_flow(bench_spec(),
               "assign:conventional | espresso | extract | map:power | "
               "analyze | error_rate");
  EXPECT_TRUE(check_equivalence(netlist_to_aig(plain.netlist),
                                netlist_to_aig(shared.netlist))
                  .equivalent);
  EXPECT_DOUBLE_EQ(plain.error_rate, shared.error_rate);
}

}  // namespace
}  // namespace rdc
