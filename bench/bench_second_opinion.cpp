// Cross-validation with a structurally different optimizer recipe — the
// in-repo analogue of the paper's ABC `resyn2rs` check ("to ensure that the
// improvements are not an artefact of Synopsys Design Compiler").
//
// The reliability gain itself is a property of the DC assignment (both
// recipes implement the same completely specified function, so the error
// rates are identical by construction — our node refactoring is
// output-preserving). What a different optimizer *could* change is the
// overhead story: this harness shows the Figure-5 area trend holds under
// the balance+refactor+balance recipe as well.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace rdc;
  bench::Options options_cli;
  int exit_code = 0;
  if (!bench::parse_args(argc, argv, options_cli, exit_code)) return exit_code;

  bench::heading(
      "Second-opinion flow: area trend under direct vs resyn recipe");

  const std::vector<double> fractions{0.0, 0.5, 1.0};
  std::printf("%-8s | %22s | %22s\n", "", "direct (norm. area)",
              "resyn (norm. area)");
  std::printf("%-8s | %6s %6s %6s | %6s %6s %6s\n", "Name", "f=0", "f=.5",
              "f=1", "f=0", "f=.5", "f=1");
  std::printf(
      "----------------------------------------------------------------\n");

  obs::RunReport report("second_opinion");
  double mean_full[2] = {0.0, 0.0};
  double mean_abs_ratio = 0.0;
  std::size_t ok_circuits = 0;
  for (const IncompleteSpec& spec : bench::suite()) {
    // Compute everything first; print and record only on success, so a
    // failed circuit leaves no partial table line or half-filled JSON row.
    double baseline_area[2] = {0.0, 0.0};
    std::vector<double> norms;
    const exec::Status status = bench::run_guarded(options_cli, [&] {
      for (const bool resyn : {false, true}) {
        for (const double fraction : fractions) {
          const FlowResult r = run_flow(
              spec, "assign:ranking(" + format_double(fraction) +
                        ") | espresso | factor | aig" +
                        (resyn ? " | resyn" : "") +
                        " | map:power | analyze | error_rate");
          if (fraction == 0.0) baseline_area[resyn] = r.stats.area;
          norms.push_back(
              bench::normalized(baseline_area[resyn], r.stats.area));
        }
      }
    });
    if (!status.ok()) {
      bench::print_error_row(spec.name(), status);
      bench::add_error_row(report, spec.name(), status);
      continue;
    }
    ++ok_circuits;
    std::printf("%-8s |", spec.name().c_str());
    obs::Record& row = report.add_row();
    row.set("name", spec.name());
    row.set("status", "OK");
    std::size_t at = 0;
    for (const bool resyn : {false, true}) {
      for (const double fraction : fractions) {
        const double norm = norms[at++];
        std::printf(" %6.3f", norm);
        if (fraction == 1.0) mean_full[resyn] += norm;
        char key[48];
        std::snprintf(key, sizeof key, "%s_norm_area_at_%.1f",
                      resyn ? "resyn" : "direct", fraction);
        row.set(key, norm);
      }
      std::printf(" |");
    }
    std::printf("\n");
    mean_abs_ratio += bench::normalized(baseline_area[0], baseline_area[1]);
  }
  const double n = static_cast<double>(ok_circuits == 0 ? 1 : ok_circuits);
  std::printf("\nmean normalized area at fraction 1: direct %.3f, resyn %.3f\n",
              mean_full[0] / n, mean_full[1] / n);
  std::printf("mean resyn/direct baseline area ratio: %.3f\n",
              mean_abs_ratio / n);
  report.meta().set("mean_direct_norm_area_at_1", mean_full[0] / n);
  report.meta().set("mean_resyn_norm_area_at_1", mean_full[1] / n);
  report.meta().set("mean_baseline_area_ratio", mean_abs_ratio / n);
  bench::note(
      "\nExpected: the same rising-overhead trend under both recipes —\n"
      "the reliability/area tradeoff is not an artefact of one optimizer.");
  return bench::finish(options_cli, report);
}
