// Ablation E: multi-output kernel extraction (GKX-lite).
//
// Measures the area/delay effect of sharing common kernels across outputs
// before factoring, for the conventional and the LC^f flows. Extraction is
// functionally neutral, so error rates are unchanged by construction.
#include <cstdio>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace rdc;
  bench::Options options_cli;
  int exit_code = 0;
  if (!bench::parse_args(argc, argv, options_cli, exit_code)) return exit_code;

  bench::heading("Ablation E: cross-output kernel extraction");
  std::printf("%-8s | %9s %9s %7s | %9s %9s %7s\n", "Name", "conv area",
              "+extract", "delta%", "lcf area", "+extract", "delta%");
  std::printf(
      "--------------------------------------------------------------------\n");

  obs::RunReport report("ablation_extract");
  double mean_conv = 0.0;
  double mean_lcf = 0.0;
  std::size_t ok_circuits = 0;
  for (const IncompleteSpec& spec : bench::suite()) {
    const exec::Status status = bench::run_guarded(options_cli, [&] {
      const std::string extracting =
          " | espresso | extract | map:power | analyze | error_rate";
      const double conv0 =
          run_flow(spec, "assign:conventional" + bench::kLowerHalf).stats.area;
      const double conv1 =
          run_flow(spec, "assign:conventional" + extracting).stats.area;
      const double lcf0 =
          run_flow(spec, "assign:lcf(0.55)" + bench::kLowerHalf).stats.area;
      const double lcf1 =
          run_flow(spec, "assign:lcf(0.55)" + extracting).stats.area;

      const double dc = bench::improvement_percent(conv0, conv1);
      const double dl = bench::improvement_percent(lcf0, lcf1);
      mean_conv += dc;
      mean_lcf += dl;
      std::printf("%-8s | %9.1f %9.1f %7.1f | %9.1f %9.1f %7.1f\n",
                  spec.name().c_str(), conv0, conv1, dc, lcf0, lcf1, dl);
      obs::Record& r = report.add_row();
      r.set("name", spec.name());
      r.set("status", "OK");
      r.set("conventional_area", conv0);
      r.set("conventional_area_extracted", conv1);
      r.set("conventional_delta_percent", dc);
      r.set("lcf_area", lcf0);
      r.set("lcf_area_extracted", lcf1);
      r.set("lcf_delta_percent", dl);
    });
    if (!status.ok()) {
      bench::print_error_row(spec.name(), status);
      bench::add_error_row(report, spec.name(), status);
      continue;
    }
    ++ok_circuits;
  }
  const double n = static_cast<double>(ok_circuits == 0 ? 1 : ok_circuits);
  std::printf("%-8s | %9s %9s %7.1f | %9s %9s %7.1f\n", "mean", "", "",
              mean_conv / n, "", "", mean_lcf / n);
  bench::note(
      "\ndelta% > 0: extraction saved area. The reliability conclusions are\n"
      "orthogonal (error rates are identical with and without extraction).");
  return bench::finish(options_cli, report);
}
