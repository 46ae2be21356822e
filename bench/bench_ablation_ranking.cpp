// Ablation B: static vs incremental ranking-based assignment.
//
// The paper's Fig. 3 ranks once and assigns (static); the incremental
// variant refreshes neighbor counts after every assignment so earlier
// decisions can create/destroy majorities for later ones. This harness
// compares error rate and area of both variants across the fraction sweep.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace rdc;
  bench::Options options_cli;
  int exit_code = 0;
  if (!bench::parse_args(argc, argv, options_cli, exit_code)) return exit_code;

  bench::heading("Ablation B: static vs incremental ranking assignment");
  std::printf("%8s | %12s %12s | %12s %12s\n", "fraction", "static er",
              "incr. er", "static area", "incr. area");
  std::printf(
      "----------------------------------------------------------------\n");

  obs::RunReport report("ablation_ranking");
  const std::vector<double> fractions{0.25, 0.5, 0.75, 1.0};
  for (const double fraction : fractions) {
    double er_static = 0.0;
    double er_incremental = 0.0;
    double area_static = 0.0;
    double area_incremental = 0.0;
    std::size_t ok_circuits = 0;
    for (const IncompleteSpec& spec : bench::suite()) {
      const exec::Status status = bench::run_guarded(options_cli, [&] {
        const FlowResult baseline =
            run_flow(spec, "assign:conventional" + bench::kLowerHalf);
        const std::string arg =
            std::string("(").append(format_double(fraction)).append(")");
        const FlowResult s =
            run_flow(spec, "assign:ranking" + arg + bench::kLowerHalf);
        const FlowResult i =
            run_flow(spec, "assign:ranking_inc" + arg + bench::kLowerHalf);
        er_static += bench::normalized(baseline.error_rate, s.error_rate);
        er_incremental +=
            bench::normalized(baseline.error_rate, i.error_rate);
        area_static += bench::normalized(baseline.stats.area, s.stats.area);
        area_incremental +=
            bench::normalized(baseline.stats.area, i.stats.area);
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
    std::printf("%8.2f | %12.3f %12.3f | %12.3f %12.3f\n", fraction,
                er_static / count, er_incremental / count,
                area_static / count, area_incremental / count);
    obs::Record& r = report.add_row();
    r.set("fraction", fraction);
    r.set("static_error", er_static / count);
    r.set("incremental_error", er_incremental / count);
    r.set("static_area", area_static / count);
    r.set("incremental_area", area_incremental / count);
  }
  bench::note(
      "\nValues are normalized to conventional assignment (1.0). The paper\n"
      "uses the static variant; the incremental variant is a design-space\n"
      "probe — it assigns the same budget but reacts to its own decisions.");
  return bench::finish(options_cli, report);
}
