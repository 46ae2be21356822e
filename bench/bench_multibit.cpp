// Ablation D: does the single-bit optimization generalize to multi-bit
// input errors?
//
// The paper's model assumes single-bit errors dominate ("the relative
// occurrence of single-bit errors will far exceed that of multi-bit
// errors") and all algorithms optimize k = 1. This harness measures the
// realized k = 1 and k = 2 error rates of the conventional and
// fully-reliability-assigned implementations, plus a Monte-Carlo
// cross-check of the enumerative rates.
#include <cstdio>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "reliability/fault_model.hpp"

int main(int argc, char** argv) {
  using namespace rdc;
  bench::Options options_cli;
  int exit_code = 0;
  if (!bench::parse_args(argc, argv, options_cli, exit_code)) return exit_code;

  bench::heading("Ablation D: multi-bit input errors (k = 1 vs k = 2)");
  std::printf("%-8s | %8s %8s %7s | %8s %8s %7s | %8s\n", "Name", "conv k1",
              "rel k1", "impr%", "conv k2", "rel k2", "impr%", "MC k1 err");
  std::printf(
      "---------------------------------------------------------------------"
      "--------\n");

  obs::RunReport report("multibit");
  using reliability::FaultModelSpec;
  const auto bitflip1 =
      reliability::make_fault_model(FaultModelSpec::bitflip(1));
  const auto bitflip2 =
      reliability::make_fault_model(FaultModelSpec::bitflip(2));
  Rng rng(0xD00D);
  double impr1 = 0.0;
  double impr2 = 0.0;
  std::size_t ok_circuits = 0;
  for (const IncompleteSpec& spec : bench::suite()) {
    const exec::Status status = bench::run_guarded(options_cli, [&] {
      const FlowResult conventional =
          run_flow(spec, "assign:conventional" + bench::kLowerHalf);
      const FlowResult reliability =
          run_flow(spec, "assign:all" + bench::kLowerHalf);

      const double c1 = conventional.error_rate;
      const double r1 = reliability.error_rate;
      const double c2 = bitflip2->error_rate(conventional.implementation, spec);
      const double r2 = bitflip2->error_rate(reliability.implementation, spec);
      const double i1 = bench::improvement_percent(c1, r1);
      const double i2 = bench::improvement_percent(c2, r2);
      impr1 += i1;
      impr2 += i2;

      // Monte-Carlo agreement check on the k = 1 conventional rate, with
      // the stratified estimator of the error_rate:sampled pass.
      const double mc =
          bitflip1->sampled_rate(conventional.implementation, spec, 20000, rng)
              .rate;
      std::printf("%-8s | %8.4f %8.4f %7.1f | %8.4f %8.4f %7.1f | %8.4f\n",
                  spec.name().c_str(), c1, r1, i1, c2, r2, i2, mc - c1);
      obs::Record& row = report.add_row();
      row.set("name", spec.name());
      row.set("status", "OK");
      row.set("conventional_k1", c1);
      row.set("reliability_k1", r1);
      row.set("improvement_k1_percent", i1);
      row.set("conventional_k2", c2);
      row.set("reliability_k2", r2);
      row.set("improvement_k2_percent", i2);
      row.set("mc_k1_error", mc - c1);
    });
    if (!status.ok()) {
      bench::print_error_row(spec.name(), status);
      bench::add_error_row(report, spec.name(), status);
      continue;
    }
    ++ok_circuits;
  }
  const double n = static_cast<double>(ok_circuits == 0 ? 1 : ok_circuits);
  std::printf("%-8s | %8s %8s %7.1f | %8s %8s %7.1f |\n", "mean", "", "",
              impr1 / n, "", "", impr2 / n);
  bench::note(
      "\nExpected: the k = 1-optimized assignment keeps a substantial (if\n"
      "smaller) advantage under k = 2 errors, and the Monte-Carlo column\n"
      "(sampled minus exact) stays within ~2 standard errors of zero.");
  report.meta().set("mean_improvement_k1_percent", impr1 / n);
  report.meta().set("mean_improvement_k2_percent", impr2 / n);
  return bench::finish(options_cli, report);
}
