#include "benchdata/suite.hpp"

#include <array>
#include <cmath>
#include <stdexcept>

#include "common/hash.hpp"
#include "common/thread_pool.hpp"
#include "synthetic/generator.hpp"

namespace rdc {
namespace {

constexpr std::array<BenchmarkInfo, 12> kTable1 = {{
    {"bench", 6, 8, 68.9, 0.533, 0.540},
    {"fout", 6, 10, 41.4, 0.351, 0.338},
    {"p3", 8, 14, 79.6, 0.671, 0.805},
    {"p1", 8, 18, 77.7, 0.641, 0.788},
    {"exp", 8, 18, 77.2, 0.644, 0.788},
    {"test4", 8, 30, 71.5, 0.560, 0.557},
    {"ex1010", 10, 10, 70.3, 0.540, 0.539},
    {"exam", 10, 10, 86.8, 0.768, 0.802},
    {"t4", 12, 8, 43.9, 0.477, 0.867},
    {"random1", 12, 12, 68.6, 0.52, 0.49},
    {"random2", 12, 12, 68.6, 0.52, 0.667},
    {"random3", 12, 12, 68.6, 0.52, 0.826},
}};

}  // namespace

std::span<const BenchmarkInfo> table1_info() { return kTable1; }

const BenchmarkInfo& benchmark_info(std::string_view name) {
  for (const BenchmarkInfo& info : kTable1)
    if (info.name == name) return info;
  throw std::out_of_range("unknown benchmark: " + std::string(name));
}

SignalSplit solve_signal_split(double dc_percent, double expected_cf) {
  SignalSplit split;
  split.fdc = dc_percent / 100.0;
  // E[C^f] = f0^2 + f1^2 + fdc^2 and f0 + f1 = 1 - fdc pin down f0*f1, then
  // f0 and f1 are the roots of the quadratic.
  const double care = 1.0 - split.fdc;
  const double sum_sq = expected_cf - split.fdc * split.fdc;
  const double product = (care * care - sum_sq) / 2.0;
  const double disc = care * care - 4.0 * product;
  if (sum_sq < 0.0 || disc < 0.0) {
    // Published E[C^f] not attainable exactly (rounding in the paper);
    // fall back to an even care split.
    split.f0 = split.f1 = care / 2.0;
    return split;
  }
  const double root = std::sqrt(disc);
  split.f0 = (care + root) / 2.0;
  split.f1 = (care - root) / 2.0;
  return split;
}

IncompleteSpec make_benchmark(const BenchmarkInfo& info) {
  const SignalSplit split =
      solve_signal_split(info.dc_percent, info.expected_cf);
  SyntheticOptions options;
  options.num_inputs = info.inputs;
  options.num_outputs = info.outputs;
  options.f0 = split.f0;
  options.f1 = split.f1;
  options.target_complexity = info.target_cf;
  options.tolerance = 0.004;
  options.max_iterations = 3000000;
  Rng rng(fnv1a(info.name) ^ 0x7265636f6e737472ull);
  return generate_spec(std::string(info.name), options, rng);
}

IncompleteSpec make_benchmark(std::string_view name) {
  return make_benchmark(benchmark_info(name));
}

std::vector<IncompleteSpec> table1_suite() {
  // Every stand-in is regenerated from its own name-derived seed, so the
  // rows are independent and fan out over the pool without changing the
  // result.
  std::vector<IncompleteSpec> suite(kTable1.size(),
                                    IncompleteSpec("", 0, 0));
  ThreadPool::global().parallel_for(0, kTable1.size(), [&](std::uint64_t i) {
    suite[i] = make_benchmark(kTable1[i]);
  });
  return suite;
}

}  // namespace rdc
