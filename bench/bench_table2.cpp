// Reproduces Table 2 of the paper: complexity-factor-based assignment
// results. For every benchmark, three reliability-driven policies are
// compared against fully conventional assignment:
//   * LC^f-based  (Fig. 7, threshold in the paper's 0.45-0.65 band),
//   * ranking-based at the SAME fraction of DCs assigned (the paper's
//     equal-fraction protocol), and
//   * complete reliability-driven assignment.
// Reported numbers are percent improvements (negative = overhead) in mapped
// area and in exact input-error rate. Benchmarks fan out over the pool
// (RDC_THREADS workers), one circuit per task; rows print in suite order.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "reliability/assignment.hpp"
#include "reliability/complexity.hpp"
#include "reliability/error_rate.hpp"

namespace {

struct Row {
  std::string name;
  unsigned inputs = 0;
  unsigned outputs = 0;
  double cf = 0.0;
  double lc_area = 0.0, lc_er = 0.0;
  double rk_area = 0.0, rk_er = 0.0;
  double cp_area = 0.0, cp_er = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rdc;
  constexpr double kThreshold = 0.55;
  bench::Options options;
  int exit_code = 0;
  if (!bench::parse_args(argc, argv, options, exit_code)) return exit_code;

  bench::heading("Table 2: Complexity-factor-based assignment results");
  std::printf("%-8s %5s | %6s | %7s %7s | %7s %7s | %7s %7s\n", "Name",
              "i/o", "C^f", "LCarea", "LCer", "RKarea", "RKer", "CParea",
              "CPer");
  std::printf(
      "----------------------------------------------------------------------\n");

  const auto& specs = bench::suite();
  const bench::GuardedRows<Row> rows =
      bench::guarded_rows<Row>(options, specs.size(), [&](std::size_t index) {
        const IncompleteSpec& spec = specs[index];
        const FlowResult conventional =
            run_flow(spec, "assign:conventional" + bench::kLowerHalf);

        // LC^f-based.
        const FlowResult lcf =
            run_flow(spec, "assign:lcf(" + format_double(kThreshold) + ")" +
                               bench::kLowerHalf);

        // Ranking-based at the same per-output fraction as the LC^f pass.
        // run_flow sees the pre-assigned spec, so its error_rate field
        // would be measured against the enlarged care set; recompute
        // against the original specification.
        IncompleteSpec ranked = spec;
        for (unsigned o = 0; o < spec.num_outputs(); ++o) {
          IncompleteSpec probe = spec;
          const AssignmentResult r = lcf_assign(probe.output(o), kThreshold);
          ranking_assign_count(ranked.output(o), r.assigned);
        }
        FlowResult ranking =
            run_flow(ranked, "assign:conventional" + bench::kLowerHalf);
        ranking.error_rate = exact_error_rate(ranking.implementation, spec);

        // Complete reliability-driven assignment.
        const FlowResult complete =
            run_flow(spec, "assign:all" + bench::kLowerHalf);

        const auto area_impr = [&](const FlowResult& r) {
          return bench::improvement_percent(conventional.stats.area,
                                            r.stats.area);
        };
        const auto er_impr = [&](const FlowResult& r) {
          return bench::improvement_percent(conventional.error_rate,
                                            r.error_rate);
        };
        return Row{spec.name(),      spec.num_inputs(),
                   spec.num_outputs(), complexity_factor(spec),
                   area_impr(lcf),   er_impr(lcf),
                   area_impr(ranking), er_impr(ranking),
                   area_impr(complete), er_impr(complete)};
      });

  for (std::size_t i = 0; i < rows.rows.size(); ++i) {
    if (!rows.ok(i)) {
      bench::print_error_row(specs[i].name(), rows.statuses[i]);
      continue;
    }
    const Row& row = rows.rows[i];
    std::printf(
        "%-8s %2u/%-2u | %6.3f | %7.1f %7.1f | %7.1f %7.1f | %7.1f %7.1f\n",
        row.name.c_str(), row.inputs, row.outputs, row.cf, row.lc_area,
        row.lc_er, row.rk_area, row.rk_er, row.cp_area, row.cp_er);
  }
  bench::note(
      "\nColumns: percent improvement over conventional assignment\n"
      "(negative = overhead). LC = LC^f-based (threshold 0.55), RK =\n"
      "ranking-based at the equal fraction, CP = complete reliability\n"
      "assignment. Expected shape (paper): LC^f-based achieves reliability\n"
      "gains with the smallest area penalty; complete assignment maximizes\n"
      "reliability at large area overheads.");

  obs::RunReport report("table2");
  report.meta().set("lcf_threshold", kThreshold);
  for (std::size_t i = 0; i < rows.rows.size(); ++i) {
    if (!rows.ok(i)) {
      bench::add_error_row(report, specs[i].name(), rows.statuses[i]);
      continue;
    }
    const Row& row = rows.rows[i];
    obs::Record& r = report.add_row();
    r.set("name", row.name);
    r.set("status", "OK");
    r.set("inputs", row.inputs);
    r.set("outputs", row.outputs);
    r.set("cf", row.cf);
    r.set("lcf_area_improvement", row.lc_area);
    r.set("lcf_error_improvement", row.lc_er);
    r.set("ranking_area_improvement", row.rk_area);
    r.set("ranking_error_improvement", row.rk_er);
    r.set("complete_area_improvement", row.cp_area);
    r.set("complete_error_improvement", row.cp_er);
  }
  return bench::finish(options, report);
}
