// Reproduces Table 1 of the paper: published and synthetic benchmark
// properties — inputs, outputs, %DC, expected complexity factor E[C^f] and
// actual complexity factor C^f.
//
// The "paper" columns are the published values the synthetic stand-ins were
// generated to match (see DESIGN.md §3); the "ours" columns are measured on
// the regenerated functions. Rows are computed in parallel (one circuit per
// pool task, RDC_THREADS workers) and printed in table order.
//
// --circuits <list> replaces the suite with external .pla/.blif files (one
// path per line) and adds a minimized-SOP column. Combined with
// --deadline-ms and RDC_FAULT this is the §10 fault-isolation smoke: every
// malformed, timed-out or fault-injected circuit becomes one error row in
// the report and the remaining circuits still complete.
#include <cstdio>
#include <fstream>
#include <string>

#include "aig/simulate.hpp"
#include "bench_util.hpp"
#include "espresso/espresso.hpp"
#include "io/blif_reader.hpp"
#include "pla/pla_io.hpp"
#include "reliability/complexity.hpp"

namespace {

using namespace rdc;

struct Row {
  std::string name;
  unsigned inputs = 0;
  unsigned outputs = 0;
  double dc = 0.0;
  double expected_cf = 0.0;
  double cf = 0.0;
  std::size_t sop = 0;  ///< minimized implicants (--circuits mode only)
};

struct CircuitRef {
  std::string name;
  std::string path;
};

std::vector<CircuitRef> load_circuit_list(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("cannot open circuit list " + path);
  std::vector<CircuitRef> circuits;
  std::string line;
  while (std::getline(in, line)) {
    if (const auto hash = line.find('#'); hash != std::string::npos)
      line.erase(hash);
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const auto last = line.find_last_not_of(" \t\r");
    const std::string file = line.substr(first, last - first + 1);
    circuits.push_back(
        {std::filesystem::path(file).stem().string(), file});
  }
  return circuits;
}

IncompleteSpec load_circuit(const CircuitRef& ref) {
  const std::filesystem::path path(ref.path);
  if (path.extension() == ".blif") {
    const BlifModel model = load_blif(path);
    const AigSimulator sim(model.aig);
    IncompleteSpec spec(ref.name,
                        static_cast<unsigned>(model.input_names.size()),
                        static_cast<unsigned>(model.output_names.size()));
    for (unsigned o = 0; o < spec.num_outputs(); ++o)
      spec.output(o) = sim.output_table(o);
    return spec;
  }
  return load_pla(path);
}

Row measure(const IncompleteSpec& spec, bool with_sop) {
  Row row{spec.name(),
          spec.num_inputs(),
          spec.num_outputs(),
          spec.dc_fraction() * 100.0,
          expected_complexity_factor(spec),
          complexity_factor(spec),
          0};
  // The SOP column routes external circuits through ESPRESSO, making this
  // mode sensitive to per-circuit deadlines and RDC_FAULT=espresso.
  if (with_sop) row.sop = minimal_sop_size(spec);
  return row;
}

int run_circuit_list(const bench::Options& options) {
  const std::vector<CircuitRef> circuits =
      load_circuit_list(options.circuits_path);

  bench::heading("Table 1 (external circuits): " + options.circuits_path);
  std::printf("%-12s %3s %3s | %6s | %6s %6s | %5s\n", "Name", "i", "o",
              "%DC", "E[C^f]", "C^f", "SOP");
  std::printf("---------------------------------------------------------\n");

  const bench::GuardedRows<Row> rows = bench::guarded_rows<Row>(
      options, circuits.size(), [&](std::size_t i) {
        return measure(load_circuit(circuits[i]), /*with_sop=*/true);
      });

  obs::RunReport report("table1_circuits");
  report.meta().set("circuits", options.circuits_path);
  if (options.deadline_ms > 0.0)
    report.meta().set("deadline_ms", options.deadline_ms);
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    if (!rows.ok(i)) {
      bench::print_error_row(circuits[i].name, rows.statuses[i]);
      bench::add_error_row(report, circuits[i].name, rows.statuses[i]);
      continue;
    }
    const Row& row = rows.rows[i];
    std::printf("%-12s %3u %3u | %6.1f | %6.3f %6.3f | %5zu\n",
                row.name.c_str(), row.inputs, row.outputs, row.dc,
                row.expected_cf, row.cf, row.sop);
    obs::Record& r = report.add_row();
    r.set("name", row.name);
    r.set("status", "OK");
    r.set("inputs", row.inputs);
    r.set("outputs", row.outputs);
    r.set("dc_percent", row.dc);
    r.set("expected_cf", row.expected_cf);
    r.set("cf", row.cf);
    r.set("sop", row.sop);
  }
  if (rows.failures() > 0)
    bench::note(std::string("\n")
                    .append(std::to_string(rows.failures()))
                    .append(" of ")
                    .append(std::to_string(circuits.size()))
                    .append(" circuits failed (error rows above); run "
                            "completed."));
  return bench::finish(options, report);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rdc;
  bench::Options options;
  int exit_code = 0;
  if (!bench::parse_args(argc, argv, options, exit_code)) return exit_code;
  if (!options.circuits_path.empty()) return run_circuit_list(options);

  bench::heading("Table 1: Published and synthetic benchmark properties");
  std::printf("%-8s %3s %3s | %6s %6s | %6s %6s | %6s %6s\n", "Name", "i",
              "o", "%DC", "paper", "E[C^f]", "paper", "C^f", "paper");
  std::printf("---------------------------------------------------------------\n");

  const auto info = table1_info();
  const bench::GuardedRows<Row> rows =
      bench::guarded_rows<Row>(options, info.size(), [&](std::size_t i) {
        return measure(make_benchmark(info[i]), /*with_sop=*/false);
      });
  for (std::size_t i = 0; i < rows.rows.size(); ++i) {
    if (!rows.ok(i)) {
      bench::print_error_row(std::string(info[i].name), rows.statuses[i]);
      continue;
    }
    const Row& row = rows.rows[i];
    std::printf("%-8s %3u %3u | %6.1f %6.1f | %6.3f %6.3f | %6.3f %6.3f\n",
                row.name.c_str(), row.inputs, row.outputs, row.dc,
                info[i].dc_percent, row.expected_cf, info[i].expected_cf,
                row.cf, info[i].target_cf);
  }
  bench::note(
      "\nEach row is a deterministic synthetic stand-in matching the MCNC\n"
      "benchmark's published signature (inputs, outputs, %DC, E[C^f], C^f).");

  obs::RunReport report("table1");
  for (std::size_t i = 0; i < rows.rows.size(); ++i) {
    if (!rows.ok(i)) {
      bench::add_error_row(report, std::string(info[i].name), rows.statuses[i]);
      continue;
    }
    const Row& row = rows.rows[i];
    obs::Record& r = report.add_row();
    r.set("name", row.name);
    r.set("status", "OK");
    r.set("inputs", row.inputs);
    r.set("outputs", row.outputs);
    r.set("dc_percent", row.dc);
    r.set("expected_cf", row.expected_cf);
    r.set("cf", row.cf);
  }
  return bench::finish(options, report);
}
