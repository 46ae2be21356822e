// Reproduces Figure 6 of the paper: normalized area versus normalized error
// rate trajectories for families of 11-input, 11-output synthetic circuits
// (DC-set = 60% of minterms), one family per complexity factor, as the
// ranking-assigned fraction sweeps from 0 to 1.
//
// Expected trends (paper): high-C^f families show the largest error-rate
// range and the largest area overheads; low-C^f families achieve
// reliability gains with small or negative area overhead.
//
// Each (family, instance) circuit is generated from its own derived seed
// and fanned out over the pool (RDC_THREADS workers), so the sweep is
// deterministic at any thread count.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "synthetic/generator.hpp"

namespace {

/// Normalized (area, error) per fraction, for one generated circuit.
struct Trajectory {
  std::vector<double> area;
  std::vector<double> error;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rdc;
  bench::Options options_cli;
  int exit_code = 0;
  if (!bench::parse_args(argc, argv, options_cli, exit_code)) return exit_code;

  bench::heading(
      "Figure 6: Area vs error rate for synthetic benchmark families "
      "(11-in, 11-out, 60% DC)");

  const std::vector<double> families{0.35, 0.45, 0.55, 0.65, 0.80};
  const std::vector<double> fractions{0.0, 0.25, 0.5, 0.75, 1.0};
  constexpr int kFunctionsPerFamily = 4;  // paper used 10; 4 keeps runtime low
  constexpr unsigned kInputs = 11;
  constexpr unsigned kOutputs = 11;
  constexpr std::uint64_t kBaseSeed = 0xF165;

  const bench::GuardedRows<Trajectory> runs = bench::guarded_rows<Trajectory>(
      options_cli, families.size() * kFunctionsPerFamily,
      [&](std::size_t task) {
        const double family_cf = families[task / kFunctionsPerFamily];
        SyntheticOptions options = options_for_target(kInputs, 0.6, family_cf);
        options.num_outputs = kOutputs;
        options.tolerance = 0.01;
        Rng rng(kBaseSeed + task);
        const IncompleteSpec spec = generate_spec(
            "fig6_cf" + std::to_string(family_cf), options, rng);
        const FlowResult baseline =
            run_flow(spec, "assign:conventional" + bench::kLowerHalf);
        Trajectory t;
        for (const double fraction : fractions) {
          const FlowResult r =
              run_flow(spec, "assign:ranking(" + format_double(fraction) +
                                 ")" + bench::kLowerHalf);
          t.area.push_back(bench::normalized(baseline.stats.area,
                                             r.stats.area));
          t.error.push_back(bench::normalized(baseline.error_rate,
                                              r.error_rate));
        }
        return t;
      });

  obs::RunReport report("fig6");
  report.meta().set("functions_per_family", kFunctionsPerFamily);
  for (std::size_t fam = 0; fam < families.size(); ++fam) {
    std::printf("\nFamily C^f = %.2f\n", families[fam]);
    std::printf("%8s %12s %12s\n", "fraction", "norm. area", "norm. error");
    int ok_instances = 0;
    for (int k = 0; k < kFunctionsPerFamily; ++k)
      if (runs.ok(fam * kFunctionsPerFamily + k)) ++ok_instances;
    if (ok_instances == 0) {
      char label[32];
      std::snprintf(label, sizeof label, "family_cf_%.2f", families[fam]);
      bench::print_error_row(label,
                             runs.statuses[fam * kFunctionsPerFamily]);
      bench::add_error_row(report, label,
                           runs.statuses[fam * kFunctionsPerFamily]);
      continue;
    }
    for (std::size_t i = 0; i < fractions.size(); ++i) {
      double area_sum = 0.0;
      double error_sum = 0.0;
      for (int k = 0; k < kFunctionsPerFamily; ++k) {
        const std::size_t task = fam * kFunctionsPerFamily + k;
        if (!runs.ok(task)) continue;
        const Trajectory& t = runs.rows[task];
        area_sum += t.area[i];
        error_sum += t.error[i];
      }
      std::printf("%8.2f %12.3f %12.3f\n", fractions[i],
                  area_sum / ok_instances, error_sum / ok_instances);
      obs::Record& r = report.add_row();
      r.set("family_cf", families[fam]);
      r.set("fraction", fractions[i]);
      r.set("instances_ok", ok_instances);
      r.set("normalized_area", area_sum / ok_instances);
      r.set("normalized_error", error_sum / ok_instances);
    }
  }
  return bench::finish(options_cli, report);
}
