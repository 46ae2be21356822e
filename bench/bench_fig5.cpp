// Reproduces Figure 5 of the paper: normalized min, max and mean area,
// power and delay across all benchmarks (y-axis) as a function of the
// fraction of DCs assigned for reliability (x-axis), under delay
// optimization and under power optimization.
//
// Normalization is per-benchmark against its fraction-0 (fully
// conventional) implementation under the same optimizer mode. Benchmarks
// fan out over the pool (RDC_THREADS workers); aggregation is in suite
// order, so the printed summary is independent of the thread count.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"

namespace {

struct Metrics {
  double area;
  double delay;
  double power;
};

Metrics metrics_of(const rdc::NetlistStats& stats) {
  return {stats.area, stats.delay_ps, stats.power_uw};
}

/// One benchmark's normalized metrics at every swept fraction.
struct Row {
  std::vector<double> area, delay, power;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rdc;
  bench::Options options_cli;
  int exit_code = 0;
  if (!bench::parse_args(argc, argv, options_cli, exit_code)) return exit_code;

  const std::vector<double> fractions{0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
  obs::RunReport report("fig5");

  for (const bool is_delay : {true, false}) {
    const std::string lower_half =
        is_delay
            ? " | espresso | factor | aig | balance | map:delay | analyze | "
              "error_rate"
            : bench::kLowerHalf;
    bench::heading(std::string("Figure 5 (") +
                   (is_delay ? "delay" : "power") +
                   "-optimized): normalized overhead vs fraction assigned");

    const auto& specs = bench::suite();
    const bench::GuardedRows<Row> rows =
        bench::guarded_rows<Row>(options_cli, specs.size(),
                                 [&](std::size_t index) {
          const IncompleteSpec& spec = specs[index];
          const Metrics baseline = metrics_of(
              run_flow(spec, "assign:conventional" + lower_half).stats);
          Row row;
          for (const double fraction : fractions) {
            const Metrics m = metrics_of(
                run_flow(spec, "assign:ranking(" + format_double(fraction) +
                                   ")" + lower_half)
                    .stats);
            row.area.push_back(bench::normalized(baseline.area, m.area));
            row.delay.push_back(bench::normalized(baseline.delay, m.delay));
            row.power.push_back(bench::normalized(baseline.power, m.power));
          }
          return row;
        });

    // normalized[fraction] = per-benchmark normalized values.
    std::vector<std::vector<double>> norm_area(fractions.size());
    std::vector<std::vector<double>> norm_delay(fractions.size());
    std::vector<std::vector<double>> norm_power(fractions.size());
    for (std::size_t index = 0; index < rows.rows.size(); ++index) {
      if (!rows.ok(index)) {
        bench::print_error_row(specs[index].name(), rows.statuses[index]);
        bench::add_error_row(report, specs[index].name(),
                             rows.statuses[index]);
        continue;
      }
      const Row& row = rows.rows[index];
      for (std::size_t i = 0; i < fractions.size(); ++i) {
        norm_area[i].push_back(row.area[i]);
        norm_delay[i].push_back(row.delay[i]);
        norm_power[i].push_back(row.power[i]);
      }
    }

    const auto print_metric = [&](const char* name,
                                  const std::vector<std::vector<double>>& v) {
      std::printf("\n%s (min / mean / max across benchmarks)\n", name);
      std::printf("%8s %8s %8s %8s\n", "fraction", "min", "mean", "max");
      for (std::size_t i = 0; i < fractions.size(); ++i) {
        const Summary s = summarize(v[i]);
        std::printf("%8.1f %8.3f %8.3f %8.3f\n", fractions[i], s.min, s.mean,
                    s.max);
      }
    };
    print_metric("Normalized area", norm_area);
    print_metric("Normalized delay", norm_delay);
    print_metric("Normalized power", norm_power);

    for (std::size_t i = 0; i < fractions.size(); ++i) {
      obs::Record& r = report.add_row();
      r.set("objective", is_delay ? "delay" : "power");
      r.set("fraction", fractions[i]);
      const auto put = [&](const char* metric, const Summary& s) {
        r.set(std::string(metric) + "_min", s.min);
        r.set(std::string(metric) + "_mean", s.mean);
        r.set(std::string(metric) + "_max", s.max);
      };
      put("area", summarize(norm_area[i]));
      put("delay", summarize(norm_delay[i]));
      put("power", summarize(norm_power[i]));
    }
  }
  bench::note(
      "\nExpected shape (paper): means rise with the fraction assigned\n"
      "(reliability costs overhead), while the min lines dip below 1.0 on\n"
      "some benchmarks — selective ranking-based assignment can improve\n"
      "area/delay and reliability simultaneously.");
  return bench::finish(options_cli, report);
}
