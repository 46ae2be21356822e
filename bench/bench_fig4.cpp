// Reproduces Figure 4 of the paper: normalized error rate of each benchmark
// as a function of the fraction of DCs assigned by the ranking-based
// algorithm. Error rates are normalized to the fully conventional assignment
// (fraction = 0), so curves start at 1.0 and decrease as more DCs are
// assigned for reliability. Benchmarks fan out over the pool (RDC_THREADS
// workers); rows print in suite order.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace {

struct Row {
  std::string name;
  std::vector<double> normalized;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rdc;
  bench::Options options_cli;
  int exit_code = 0;
  if (!bench::parse_args(argc, argv, options_cli, exit_code)) return exit_code;

  bench::heading(
      "Figure 4: Normalized error rate vs fraction of DCs assigned "
      "(ranking-based)");

  const std::vector<double> fractions{0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
  std::printf("%-8s", "Name");
  for (const double f : fractions) std::printf(" %7.1f", f);
  std::printf("\n--------------------------------------------------------\n");

  const auto& specs = bench::suite();
  const bench::GuardedRows<Row> rows =
      bench::guarded_rows<Row>(options_cli, specs.size(),
                               [&](std::size_t index) {
        const IncompleteSpec& spec = specs[index];
        const double baseline =
            run_flow(spec, "assign:conventional" + bench::kLowerHalf).error_rate;
        Row row{spec.name(), {}};
        row.normalized.reserve(fractions.size());
        for (const double fraction : fractions) {
          const double rate =
              run_flow(spec, "assign:ranking(" + format_double(fraction) +
                                 ")" + bench::kLowerHalf)
                  .error_rate;
          row.normalized.push_back(bench::normalized(baseline, rate));
        }
        return row;
      });

  obs::RunReport report("fig4");
  std::vector<double> mean(fractions.size(), 0.0);
  for (std::size_t index = 0; index < rows.rows.size(); ++index) {
    if (!rows.ok(index)) {
      bench::print_error_row(specs[index].name(), rows.statuses[index]);
      bench::add_error_row(report, specs[index].name(),
                           rows.statuses[index]);
      continue;
    }
    const Row& row = rows.rows[index];
    std::printf("%-8s", row.name.c_str());
    obs::Record& r = report.add_row();
    r.set("name", row.name);
    r.set("status", "OK");
    for (std::size_t i = 0; i < fractions.size(); ++i) {
      mean[i] += row.normalized[i];
      std::printf(" %7.3f", row.normalized[i]);
      char key[32];
      std::snprintf(key, sizeof key, "normalized_at_%.1f", fractions[i]);
      r.set(key, row.normalized[i]);
    }
    std::printf("\n");
  }
  const std::size_t ok_count = rows.rows.size() - rows.failures();
  std::printf("%-8s", "mean");
  for (double& m : mean) {
    if (ok_count > 0) m /= static_cast<double>(ok_count);
    std::printf(" %7.3f", m);
  }
  std::printf("\n");
  bench::note(
      "\nExpected shape (paper): monotone decrease from 1.0; complete\n"
      "reliability-driven assignment improves input-error resilience by up\n"
      "to ~50% on DC-rich benchmarks.");
  return bench::finish(options_cli, report);
}
