// Ablation A: LC^f threshold sweep. The paper recommends thresholds in
// [0.45, 0.65] — "low threshold values optimize for performance, high
// threshold values optimize for reliability". This harness sweeps the
// threshold and reports mean area / error-rate improvements plus the mean
// fraction of DCs the gate admits.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace rdc;
  bench::Options options_cli;
  int exit_code = 0;
  if (!bench::parse_args(argc, argv, options_cli, exit_code)) return exit_code;

  bench::heading("Ablation A: LC^f threshold sweep");
  std::printf("%9s %10s %12s %12s\n", "threshold", "%assigned",
              "area impr.%", "error impr.%");
  std::printf("------------------------------------------------\n");

  obs::RunReport report("ablation_threshold");
  for (const double threshold :
       std::vector<double>{0.35, 0.45, 0.55, 0.65, 0.75}) {
    double assigned_sum = 0.0;
    double area_sum = 0.0;
    double error_sum = 0.0;
    std::size_t ok_circuits = 0;
    for (const IncompleteSpec& spec : bench::suite()) {
      const exec::Status status = bench::run_guarded(options_cli, [&] {
        const FlowResult conventional =
            run_flow(spec, "assign:conventional" + bench::kLowerHalf);
        const FlowResult lcf =
            run_flow(spec, "assign:lcf(" + format_double(threshold) + ")" +
                               bench::kLowerHalf);
        assigned_sum += lcf.assignment.dc_before > 0
                            ? 100.0 * lcf.assignment.assigned /
                                  lcf.assignment.dc_before
                            : 0.0;
        area_sum += bench::improvement_percent(conventional.stats.area,
                                               lcf.stats.area);
        error_sum += bench::improvement_percent(conventional.error_rate,
                                                lcf.error_rate);
      });
      if (!status.ok()) {
        bench::print_error_row(spec.name(), status);
        bench::add_error_row(report, spec.name(), status);
        continue;
      }
      ++ok_circuits;
    }
    const double count =
        static_cast<double>(ok_circuits == 0 ? 1 : ok_circuits);
    std::printf("%9.2f %10.1f %12.2f %12.2f\n", threshold,
                assigned_sum / count, area_sum / count, error_sum / count);
    obs::Record& r = report.add_row();
    r.set("threshold", threshold);
    r.set("assigned_percent", assigned_sum / count);
    r.set("area_improvement_percent", area_sum / count);
    r.set("error_improvement_percent", error_sum / count);
  }
  bench::note(
      "\nExpected shape (paper): low thresholds assign few DCs (small error\n"
      "gain, no overhead); high thresholds approach complete assignment\n"
      "(large error gain, growing overhead); the 0.45-0.65 band balances\n"
      "the two.");
  return bench::finish(options_cli, report);
}
