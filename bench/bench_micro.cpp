// Microbenchmarks (google-benchmark) for the computational kernels:
// the word-parallel kernel layer (exact error rate, NeighborTable,
// complexity factor — each against its scalar oracle in tests/oracles/),
// ESPRESSO minimization, DC-assignment passes, BDD construction and the
// mapper.
// These track the cost of the building blocks the experiment harnesses are
// made of; bench/run_bench_baseline.sh snapshots the kernel group into
// BENCH_kernels.json so the perf trajectory is recorded across PRs.
//
// Like the table/figure harnesses, `--json <path>` writes an
// rdc.bench.report.v1 document; the remaining arguments go to
// google-benchmark unchanged (--benchmark_filter etc.). Micro rows carry
// timings, so unlike the other suites they are machine- and run-dependent.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "exec/status.hpp"
#include "obs/report.hpp"
#include "oracles/error_rate.hpp"

#include "aig/balance.hpp"
#include "common/rng.hpp"
#include "espresso/espresso.hpp"
#include "flow/synthesis_flow.hpp"
#include "mapper/power.hpp"
#include "mapper/tree_map.hpp"
#include "oracles/bdd_ops.hpp"
#include "reliability/assignment.hpp"
#include "reliability/complexity.hpp"
#include "reliability/error_rate.hpp"
#include "reliability/fault_model.hpp"
#include "sat/equivalence.hpp"
#include "sop/extract.hpp"
#include "sop/factor.hpp"
#include "tt/neighbor_stats.hpp"

namespace {

using namespace rdc;

TernaryTruthTable random_ternary(unsigned n, double dc, std::uint64_t seed) {
  Rng rng(seed);
  TernaryTruthTable f(n);
  for (std::uint32_t m = 0; m < f.size(); ++m) {
    if (rng.flip(dc))
      f.set_phase(m, Phase::kDc);
    else
      f.set_phase(m, rng.flip(0.5) ? Phase::kOne : Phase::kZero);
  }
  return f;
}

// --- Kernel layer: word-parallel vs the scalar test oracles --------------

void BM_ExactErrorRate(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const TernaryTruthTable spec = random_ternary(n, 0.6, 90);
  const TernaryTruthTable impl = spec.with_all_dc_assigned(Phase::kZero);
  for (auto _ : state) benchmark::DoNotOptimize(exact_error_rate(impl, spec));
}
BENCHMARK(BM_ExactErrorRate)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

void BM_ExactErrorRateScalar(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const TernaryTruthTable spec = random_ternary(n, 0.6, 90);
  const TernaryTruthTable impl = spec.with_all_dc_assigned(Phase::kZero);
  for (auto _ : state)
    benchmark::DoNotOptimize(oracle::error_rate(impl, spec));
}
BENCHMARK(BM_ExactErrorRateScalar)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

void BM_NeighborTable(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const TernaryTruthTable f = random_ternary(n, 0.6, 91);
  for (auto _ : state) benchmark::DoNotOptimize(NeighborTable(f));
}
BENCHMARK(BM_NeighborTable)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

void BM_NeighborTableScalar(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const TernaryTruthTable f = random_ternary(n, 0.6, 91);
  for (auto _ : state) benchmark::DoNotOptimize(oracle::neighbor_counts(f));
}
BENCHMARK(BM_NeighborTableScalar)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

void BM_ComplexityFactorScalar(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const TernaryTruthTable f = random_ternary(n, 0.6, 81);
  for (auto _ : state) benchmark::DoNotOptimize(oracle::complexity_factor(f));
}
BENCHMARK(BM_ComplexityFactorScalar)->Arg(10)->Arg(12)->Arg(14);

void BM_ErrorRateKbit(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const TernaryTruthTable spec = random_ternary(n, 0.6, 92);
  const TernaryTruthTable impl = spec.with_all_dc_assigned(Phase::kOne);
  const auto model = reliability::make_fault_model(
      reliability::FaultModelSpec::bitflip(2));
  for (auto _ : state)
    benchmark::DoNotOptimize(model->error_rate(impl, spec));
}
BENCHMARK(BM_ErrorRateKbit)->Arg(8)->Arg(12)->Arg(16);

void BM_DcEventsKbit(benchmark::State& state) {
  // bitflip(k) assignment events of every DC at the perfbench sweep's DC
  // density: k = 2 reads the NeighborTable at the DCs only, k = 3 also
  // builds one distance level over all 2^n minterms per care set.
  const auto n = static_cast<unsigned>(state.range(0));
  const auto k = static_cast<unsigned>(state.range(1));
  const TernaryTruthTable spec = random_ternary(n, 0.7, 93);
  const NeighborTable neighbors(spec);
  const std::vector<std::uint32_t> dcs = spec.dc_minterms();
  const auto model = reliability::make_fault_model(
      reliability::FaultModelSpec::bitflip(k));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        model->dc_assignment_events(spec, dcs, neighbors));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dcs.size()));
}
BENCHMARK(BM_DcEventsKbit)
    ->Args({12, 2})
    ->Args({12, 3})
    ->Args({16, 2})
    ->Args({16, 3})
    ->Args({18, 2})
    ->Args({18, 3})
    ->Unit(benchmark::kMillisecond);


void BM_SampledErrorRate(benchmark::State& state) {
  // Stratified 95%-CI estimator at a fixed 1e5-draw budget: cost is
  // independent of 2^n, which is the point of sampling past n = 20.
  const auto n = static_cast<unsigned>(state.range(0));
  const TernaryTruthTable spec = random_ternary(n, 0.6, 90);
  const TernaryTruthTable impl = spec.with_all_dc_assigned(Phase::kZero);
  const auto model = reliability::make_fault_model(
      reliability::FaultModelSpec::bitflip(1));
  Rng rng(23);
  for (auto _ : state)
    benchmark::DoNotOptimize(model->sampled_rate(impl, spec, 100000, rng));
}
BENCHMARK(BM_SampledErrorRate)->Arg(12)->Arg(16)->Arg(20);

// -------------------------------------------------------------------------

void BM_EspressoMinimize(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const TernaryTruthTable f = random_ternary(n, 0.6, 77);
  for (auto _ : state) benchmark::DoNotOptimize(minimize(f));
}
BENCHMARK(BM_EspressoMinimize)->Arg(6)->Arg(8)->Arg(10);

void BM_RankingAssign(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const TernaryTruthTable f = random_ternary(n, 0.6, 78);
  for (auto _ : state) {
    TernaryTruthTable g = f;
    benchmark::DoNotOptimize(ranking_assign(g, 1.0));
  }
}
BENCHMARK(BM_RankingAssign)->Arg(8)->Arg(10)->Arg(12);

void BM_LcfAssign(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const TernaryTruthTable f = random_ternary(n, 0.6, 79);
  for (auto _ : state) {
    TernaryTruthTable g = f;
    benchmark::DoNotOptimize(lcf_assign(g, 0.55));
  }
}
BENCHMARK(BM_LcfAssign)->Arg(8)->Arg(10)->Arg(12);

void BM_ExactErrorBounds(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const TernaryTruthTable f = random_ternary(n, 0.6, 80);
  for (auto _ : state) benchmark::DoNotOptimize(exact_error_bounds(f));
}
BENCHMARK(BM_ExactErrorBounds)->Arg(10)->Arg(12)->Arg(14);

void BM_ComplexityFactor(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const TernaryTruthTable f = random_ternary(n, 0.6, 81);
  for (auto _ : state) benchmark::DoNotOptimize(complexity_factor(f));
}
BENCHMARK(BM_ComplexityFactor)->Arg(10)->Arg(12)->Arg(14);

void BM_BddFromTruthTable(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const TernaryTruthTable f = random_ternary(n, 0.6, 82);
  for (auto _ : state) {
    oracle::BddManager mgr(n);
    benchmark::DoNotOptimize(oracle::to_symbolic(mgr, f));
  }
}
BENCHMARK(BM_BddFromTruthTable)->Arg(8)->Arg(10)->Arg(12);

void BM_SymbolicBorders(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const TernaryTruthTable f = random_ternary(n, 0.6, 83);
  oracle::BddManager mgr(n);
  const oracle::SymbolicSpec sym = oracle::to_symbolic(mgr, f);
  for (auto _ : state)
    benchmark::DoNotOptimize(oracle::symbolic_borders(mgr, sym));
}
BENCHMARK(BM_SymbolicBorders)->Arg(8)->Arg(10)->Arg(12);

void BM_MapAig(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const TernaryTruthTable f = random_ternary(n, 0.0, 84);
  Aig aig(n);
  aig.add_output(aig.build(factor(minimize(f))));
  for (auto _ : state)
    benchmark::DoNotOptimize(map_aig(aig, CellLibrary::generic70()));
}
BENCHMARK(BM_MapAig)->Arg(6)->Arg(8)->Arg(10);

/// The `analyze` pass's simulation: exact signal probabilities of every
/// net of a mapped random function.
void BM_NetProbabilities(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const TernaryTruthTable f = random_ternary(n, 0.0, 84);
  Aig aig(n);
  aig.add_output(aig.build(factor(minimize(f))));
  const Netlist netlist = map_aig(aig, CellLibrary::generic70());
  for (auto _ : state) benchmark::DoNotOptimize(net_probabilities(netlist));
}
BENCHMARK(BM_NetProbabilities)->Arg(8)->Arg(10)->Arg(12);

/// The `factor` pass on one minimized random function.
void BM_Factor(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const Cover cover = minimize(random_ternary(n, 0.0, 84));
  for (auto _ : state) benchmark::DoNotOptimize(factor(cover));
}
BENCHMARK(BM_Factor)->Arg(8)->Arg(10)->Arg(12);

void BM_SatEquivalence(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const TernaryTruthTable f = random_ternary(n, 0.0, 87);
  Aig a(n);
  a.add_output(a.build(factor(minimize(f))));
  const Aig b = balance(a);
  for (auto _ : state) benchmark::DoNotOptimize(check_equivalence(a, b));
}
BENCHMARK(BM_SatEquivalence)->Arg(8)->Arg(10)->Arg(12);

void BM_KernelExtraction(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  std::vector<Cover> covers;
  for (int o = 0; o < 4; ++o)
    covers.push_back(minimize(random_ternary(n, 0.3, 88 + o)));
  for (auto _ : state) {
    Aig aig(n);
    benchmark::DoNotOptimize(build_with_extraction(aig, covers));
  }
}
BENCHMARK(BM_KernelExtraction)->Arg(6)->Arg(8);

void BM_FullFlow(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  Rng rng(85);
  IncompleteSpec spec("bm", n, 4);
  for (auto& f : spec.outputs()) f = random_ternary(n, 0.6, rng());
  for (auto _ : state)
    benchmark::DoNotOptimize(
        run_flow(spec,
                 "assign:lcf(0.55) | espresso | factor | aig | map:power | "
                 "analyze | error_rate"));
}
BENCHMARK(BM_FullFlow)->Arg(6)->Arg(8)->Unit(benchmark::kMillisecond);

/// Console reporter that additionally keeps every Run record so main() can
/// emit the rdc.bench.report.v1 document after the run. Aggregate runs are
/// kept too — under --benchmark_report_aggregates_only the library hands
/// the reporter only aggregates, and their names carry the _mean/_median
/// suffix, so the rows stay self-describing.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports)
      if (!run.error_occurred) runs_.push_back(run);
  }
  const std::vector<Run>& runs() const { return runs_; }

 private:
  std::vector<Run> runs_;
};

}  // namespace

int main(int argc, char** argv) {
  rdc::obs::trace_mode();  // resolve RDC_TRACE before any benchmark runs
  // Strip the shared --json option before handing argv to google-benchmark.
  std::string json_path;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
    else if (std::strncmp(argv[i], "--json=", 7) == 0)
      json_path = argv[i] + 7;
    else
      args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
    return 1;

  CollectingReporter reporter;
  // Minimal §10 fault boundary: a kernel that throws (e.g. under RDC_FAULT)
  // still yields a report with the completed runs plus one error row.
  rdc::exec::Status run_status;
  try {
    benchmark::RunSpecifiedBenchmarks(&reporter);
  } catch (...) {
    run_status = rdc::exec::status_from_current_exception();
    std::fprintf(stderr, "benchmark run aborted: %s\n",
                 run_status.to_string().c_str());
  }
  benchmark::Shutdown();

  if (json_path.empty()) return run_status.ok() ? 0 : 1;
  rdc::obs::RunReport report("micro");
  if (!run_status.ok()) {
    rdc::obs::Record& r = report.add_row();
    r.set("name", "benchmark_run");
    r.set("status", rdc::exec::status_code_name(run_status.code()));
    r.set("error", run_status.to_string());
  }
  for (const auto& run : reporter.runs()) {
    rdc::obs::Record& r = report.add_row();
    r.set("name", run.benchmark_name());
    r.set("real_time", run.GetAdjustedRealTime());
    r.set("cpu_time", run.GetAdjustedCPUTime());
    r.set("time_unit", benchmark::GetTimeUnitString(run.time_unit));
    r.set("iterations", run.iterations);
  }
  if (!report.write_file(json_path)) return 1;
  std::printf("\n[report: %s]\n", json_path.c_str());
  return 0;
}
