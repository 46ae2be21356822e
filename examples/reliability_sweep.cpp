// Example: reliability/overhead tradeoff exploration on one benchmark.
//
// Sweeps the ranking-based assignment fraction (the knob of the paper's
// Figures 4 and 5) on a named Table-1 benchmark and prints the resulting
// error-rate and area/delay/power trajectory, plus the analytical bounds of
// Section 5 for context.
//
//   ./reliability_sweep [benchmark-name] [steps]
//
// Defaults: ex1010, 6 steps.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "benchdata/suite.hpp"
#include "common/format.hpp"
#include "flow/synthesis_flow.hpp"
#include "reliability/error_rate.hpp"
#include "reliability/estimates.hpp"

int main(int argc, char** argv) {
  using namespace rdc;
  const std::string name = argc > 1 ? argv[1] : "ex1010";
  const int steps = argc > 2 ? std::atoi(argv[2]) : 6;

  const IncompleteSpec spec = make_benchmark(name);
  std::printf("Benchmark '%s': %u inputs, %u outputs, %.1f%% DC\n",
              name.c_str(), spec.num_inputs(), spec.num_outputs(),
              spec.dc_fraction() * 100.0);

  const RateBounds exact = exact_error_bounds(spec);
  const EstimatedBounds signal = signal_probability_bounds(spec);
  const EstimatedBounds border = border_bounds(spec);
  std::printf("Error-rate bounds  exact: [%.4f, %.4f]  signal-model: "
              "[%.4f, %.4f]  border-model: [%.4f, %.4f]\n\n",
              exact.min, exact.max, signal.min, signal.max, border.min,
              border.max);

  std::printf("%9s %10s %8s %9s %9s %10s\n", "fraction", "error rate",
              "gates", "area", "delay/ps", "power/uW");
  for (int i = 0; i <= steps; ++i) {
    const double fraction = static_cast<double>(i) / steps;
    const FlowResult r = run_flow(
        spec, "assign:ranking(" + format_double(fraction) +
                  ") | espresso | factor | aig | map:power | analyze | "
                  "error_rate");
    std::printf("%9.2f %10.4f %8zu %9.1f %9.1f %10.2f\n", fraction,
                r.error_rate, r.stats.gates, r.stats.area, r.stats.delay_ps,
                r.stats.power_uw);
  }
  std::printf("\nfraction 0.00 is the conventional flow; 1.00 assigns every "
              "majority-phase DC for reliability.\n");
  return 0;
}
