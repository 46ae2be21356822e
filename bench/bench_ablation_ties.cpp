// Ablation C: balanced-tie handling in the LC^f-based assignment.
//
// The paper's Fig.-7 pseudocode reads "else x <- 0", which sends DC
// minterms with evenly split neighborhoods to the off-set. Such
// assignments cannot mask any additional input error but do constrain the
// optimizer, so the library's default leaves them unassigned. This harness
// quantifies the difference.
#include <cstdio>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace rdc;
  bench::Options options_cli;
  int exit_code = 0;
  if (!bench::parse_args(argc, argv, options_cli, exit_code)) return exit_code;

  bench::heading(
      "Ablation C: LC^f tie handling (skip balanced DCs vs assign to 0)");
  std::printf("%-8s | %10s %10s | %10s %10s\n", "Name", "skip a%",
              "skip er%", "lit. a%", "lit. er%");
  std::printf("--------------------------------------------------------\n");

  obs::RunReport report("ablation_ties");
  double skip_area = 0.0, skip_er = 0.0, lit_area = 0.0, lit_er = 0.0;
  std::size_t ok_circuits = 0;
  for (const IncompleteSpec& spec : bench::suite()) {
    const exec::Status status = bench::run_guarded(options_cli, [&] {
      const FlowResult conventional =
          run_flow(spec, "assign:conventional" + bench::kLowerHalf);
      // Default: ties left to the optimizer.
      const FlowResult skip =
          run_flow(spec, "assign:lcf(0.55)" + bench::kLowerHalf);
      // Pseudocode-literal: ties assigned to 0.
      const FlowResult literal =
          run_flow(spec, "assign:lcf(0.55,balanced)" + bench::kLowerHalf);

      const double sa = bench::improvement_percent(conventional.stats.area,
                                                   skip.stats.area);
      const double se = bench::improvement_percent(conventional.error_rate,
                                                   skip.error_rate);
      const double la = bench::improvement_percent(conventional.stats.area,
                                                   literal.stats.area);
      const double le = bench::improvement_percent(conventional.error_rate,
                                                   literal.error_rate);
      skip_area += sa;
      skip_er += se;
      lit_area += la;
      lit_er += le;
      std::printf("%-8s | %10.1f %10.1f | %10.1f %10.1f\n",
                  spec.name().c_str(), sa, se, la, le);
      obs::Record& r = report.add_row();
      r.set("name", spec.name());
      r.set("status", "OK");
      r.set("skip_area_improvement", sa);
      r.set("skip_error_improvement", se);
      r.set("literal_area_improvement", la);
      r.set("literal_error_improvement", le);
    });
    if (!status.ok()) {
      bench::print_error_row(spec.name(), status);
      bench::add_error_row(report, spec.name(), status);
      continue;
    }
    ++ok_circuits;
  }
  const double n = static_cast<double>(ok_circuits == 0 ? 1 : ok_circuits);
  std::printf("%-8s | %10.1f %10.1f | %10.1f %10.1f\n", "mean",
              skip_area / n, skip_er / n, lit_area / n, lit_er / n);
  bench::note(
      "\nExpected: identical (or better) error-rate improvement with\n"
      "strictly less area overhead when balanced ties are skipped — tied\n"
      "assignments restrict the optimizer without masking anything.");
  return bench::finish(options_cli, report);
}
