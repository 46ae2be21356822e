// Cross-model ablation (Table-3 style, DESIGN.md §16): does a DC
// assignment tuned for the paper's single-bit-flip model also mask the
// other fault scenarios?
//
// For every suite circuit the conventional and fully-reliability-assigned
// implementations (both optimized under bitflip(1)) are re-evaluated under
// each registered fault model: bitflip(1), bitflip(2), a non-uniform
// per-pin weighting, and stuck-at input faults. Rates are exact (no
// sampling), so rows are byte-deterministic across RDC_THREADS.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "reliability/fault_model.hpp"

int main(int argc, char** argv) {
  using namespace rdc;
  using reliability::FaultModelSpec;
  bench::Options options_cli;
  int exit_code = 0;
  if (!bench::parse_args(argc, argv, options_cli, exit_code)) return exit_code;

  bench::heading(
      "Cross-model ablation: bitflip(1)-tuned assignment under other fault "
      "models");
  std::printf("%-8s | %-22s | %9s %9s %7s | %5s\n", "Name", "Model", "conv",
              "reliab", "impr%", "untest");
  std::printf(
      "---------------------------------------------------------------------"
      "-----\n");

  // One label per report row; the weighted model is materialized per
  // circuit because its weight vector must match the input count. The
  // weights fall off harmonically (pin 0 fails most often) so the model is
  // genuinely pin-asymmetric on every circuit.
  const char* const kModelLabels[] = {"bitflip", "bitflip(2)",
                                      "bitflip_weighted", "stuckat"};
  constexpr std::size_t kModels = 4;
  double conv_sum[kModels] = {};
  double rel_sum[kModels] = {};
  double impr_sum[kModels] = {};
  std::size_t ok_circuits = 0;

  obs::RunReport report("faultmodels");
  std::uint64_t untestable_total = 0;
  for (const IncompleteSpec& spec : bench::suite()) {
    const exec::Status status = bench::run_guarded(options_cli, [&] {
      const FlowResult conventional =
          run_flow(spec, "assign:conventional" + bench::kLowerHalf);
      const FlowResult reliability_opt =
          run_flow(spec, "assign:all" + bench::kLowerHalf);

      std::vector<double> weights(spec.num_inputs());
      for (unsigned j = 0; j < spec.num_inputs(); ++j)
        weights[j] = 1.0 / static_cast<double>(j + 1);
      const FaultModelSpec model_specs[kModels] = {
          FaultModelSpec::bitflip(1), FaultModelSpec::bitflip(2),
          FaultModelSpec::bitflip_weighted(weights),
          FaultModelSpec::stuckat()};

      const unsigned untestable =
          reliability::untestable_stuckat_faults(spec);
      untestable_total += untestable;
      for (std::size_t i = 0; i < kModels; ++i) {
        const auto model = reliability::make_fault_model(model_specs[i]);
        const double conv =
            model->error_rate(conventional.implementation, spec);
        const double rel =
            model->error_rate(reliability_opt.implementation, spec);
        const double impr = bench::improvement_percent(conv, rel);
        conv_sum[i] += conv;
        rel_sum[i] += rel;
        impr_sum[i] += impr;
        std::printf("%-8s | %-22s | %9.5f %9.5f %7.1f | %5u\n",
                    i == 0 ? spec.name().c_str() : "", kModelLabels[i], conv,
                    rel, impr, i == 0 ? untestable : 0);
      }
    });
    if (!status.ok()) {
      bench::print_error_row(spec.name(), status);
      bench::add_error_row(report, spec.name(), status);
      continue;
    }
    ++ok_circuits;
  }

  const double n = static_cast<double>(ok_circuits == 0 ? 1 : ok_circuits);
  std::printf(
      "---------------------------------------------------------------------"
      "-----\n");
  for (std::size_t i = 0; i < kModels; ++i) {
    std::printf("%-8s | %-22s | %9.5f %9.5f %7.1f |\n", i == 0 ? "mean" : "",
                kModelLabels[i], conv_sum[i] / n, rel_sum[i] / n,
                impr_sum[i] / n);
    obs::Record& row = report.add_row();
    row.set("name", kModelLabels[i]);
    row.set("status", "OK");
    row.set("fault_model", kModelLabels[i]);
    row.set("circuits", static_cast<std::uint64_t>(ok_circuits));
    row.set("mean_conventional_rate", conv_sum[i] / n);
    row.set("mean_reliability_rate", rel_sum[i] / n);
    row.set("mean_improvement_percent", impr_sum[i] / n);
  }
  bench::note(
      "\nExpected: the bitflip(1)-optimized assignment keeps most of its\n"
      "advantage under bitflip(2) and the weighted model (the ranking is\n"
      "driven by the same neighbor structure) and a reduced but positive\n"
      "margin under stuck-at faults, whose halfspace normalization rewards\n"
      "different DC choices on pin-asymmetric care sets.");
  report.meta().set("untestable_stuckat_faults", untestable_total);
  report.meta().set("mean_improvement_bitflip1_percent", impr_sum[0] / n);
  report.meta().set("mean_improvement_stuckat_percent", impr_sum[3] / n);
  return bench::finish(options_cli, report);
}
