// rdcsyn_cli — command-line front end to the library.
//
//   rdcsyn_cli stats  <in.pla>
//       Benchmark properties, error-rate bounds, analytical estimates.
//   rdcsyn_cli assign <in.pla> -o <out.pla> [--policy P] [--fraction F]
//              [--threshold T]
//       Reliability-driven DC assignment; remaining DCs stay DCs so a
//       downstream optimizer keeps its freedom. P is one of
//       ranking | incremental | lcf (default ranking); F is in [0, 1],
//       T in (0, 1).
//   rdcsyn_cli synth  <in.pla> [-o out] [--format verilog|blif|aiger]
//              [--delay] [--resyn] [--policy P ...] [--pipeline "<spec>"]
//              [--json out.json]
//       Full flow: assignment, minimization, mapping; writes the mapped
//       netlist (or the AIG for aiger) and prints the QoR report. The
//       flags name a pipeline spec, "assign:<P>(<F or T>) | espresso |
//       factor | aig [| resyn] | map:power | analyze | error_rate" with
//       "balance | map:delay" for --delay, which run_flow runs inside its
//       degradation ladder. A flow that fails (e.g. an out-of-range
//       --fraction) writes no file and exits 2 for invalid arguments, 1
//       otherwise.
//       --pipeline runs an explicit pass spec instead, fail-fast, e.g.
//       "assign:ranking(0.5) | espresso | factor | aig | map:power |
//       analyze | error_rate"; it refuses --delay and --resyn (exit 2),
//       whose passes the spec names instead.
//
// A pipeline over many circuits runs on tools/rdc_batch.
//
// Without arguments, prints usage and a tiny demo.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "flow/batch_supervisor.hpp"
#include "flow/pipeline.hpp"
#include "flow/synthesis_flow.hpp"
#include "serve/cache.hpp"
#include "mapper/liberty.hpp"
#include "io/aiger.hpp"
#include "io/blif.hpp"
#include "io/verilog.hpp"
#include "pla/pla_io.hpp"
#include "reliability/assignment.hpp"
#include "reliability/complexity.hpp"
#include "reliability/error_rate.hpp"
#include "reliability/estimates.hpp"
#include "sop/factor.hpp"
#include "espresso/espresso.hpp"
#include "aig/aig.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "decomp/renode.hpp"
#include "io/blif_reader.hpp"
#include "io/testbench.hpp"
#include "sat/equivalence.hpp"

namespace {

using namespace rdc;

int usage() {
  std::printf(
      "usage:\n"
      "  rdcsyn_cli stats  <in.pla>\n"
      "  rdcsyn_cli assign <in.pla> -o <out.pla> [--policy "
      "ranking|incremental|lcf]\n"
      "                    [--fraction F] [--threshold T]\n"
      "  rdcsyn_cli synth  <in.pla> [-o out] [--format verilog|blif|aiger]\n"
      "                    [--delay] [--resyn] [--lib file.lib] [--tb tb.v]\n"
      "                    [--policy ...] [--pipeline \"<spec>\"] [--json "
      "out.json]\n"
      "  rdcsyn_cli cachekey <in.pla> --pipeline \"<spec>\"\n"
      "      Prints the serve result-cache key (hex) for the spec bytes +\n"
      "      canonical pipeline of an unbudgeted request; pipelines with\n"
      "      different @model annotations yield different keys.\n"
      "  rdcsyn_cli renode <in.pla> [--threshold T]\n"
      "      Section-4 extension: conventional synthesis, then nodal\n"
      "      decomposition with internal-DC reassignment; reports internal\n"
      "      masking before/after.\n"
      "  rdcsyn_cli cec <a.aag|a.blif> <b.aag|b.blif>\n"
      "      SAT-based combinational equivalence check.\n"
      "\n"
      "exit codes: 0 success; 1 hard error (I/O, unexpected exception);\n"
      "  2 usage / invalid arguments.\n");
  return 2;
}

struct Args {
  std::string input;
  std::string output;
  std::string policy = "ranking";
  std::string format = "verilog";
  std::string liberty;
  std::string testbench;
  std::string pipeline;  ///< explicit pass spec (--pipeline)
  std::string json;      ///< report JSON destination (--json)
  double fraction = 0.5;
  double threshold = 0.55;
  bool delay = false;
  bool resyn = false;
};

bool parse_args(int argc, char** argv, int first, Args& args) {
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    // The whole value must parse: "abc" or "0.5x" is a usage error.
    auto value = [&](double& slot) {
      if (i + 1 >= argc) return false;
      const char* text = argv[++i];
      char* end = nullptr;
      slot = std::strtod(text, &end);
      return end != text && *end == '\0';
    };
    if (a == "-o" && i + 1 < argc) {
      args.output = argv[++i];
    } else if (a == "--policy" && i + 1 < argc) {
      args.policy = argv[++i];
    } else if (a == "--format" && i + 1 < argc) {
      args.format = argv[++i];
    } else if (a == "--lib" && i + 1 < argc) {
      args.liberty = argv[++i];
    } else if (a == "--tb" && i + 1 < argc) {
      args.testbench = argv[++i];
    } else if (a == "--pipeline" && i + 1 < argc) {
      args.pipeline = argv[++i];
    } else if (a == "--json" && i + 1 < argc) {
      args.json = argv[++i];
    } else if (a == "--fraction") {
      if (!value(args.fraction)) return false;
    } else if (a == "--threshold") {
      if (!value(args.threshold)) return false;
    } else if (a == "--delay") {
      args.delay = true;
    } else if (a == "--resyn") {
      args.resyn = true;
    } else if (a[0] != '-') {
      if (!args.input.empty()) {
        std::fprintf(stderr, "unexpected argument: %s\n", a.c_str());
        return false;
      }
      args.input = a;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return false;
    }
  }
  return !args.input.empty();
}

int cmd_stats(const Args& args) {
  const IncompleteSpec spec = load_pla(args.input);
  std::printf("%s: %u inputs, %u outputs\n", spec.name().c_str(),
              spec.num_inputs(), spec.num_outputs());
  std::printf("  %%DC        : %.1f\n", spec.dc_fraction() * 100.0);
  std::printf("  C^f        : %.3f\n", complexity_factor(spec));
  std::printf("  E[C^f]     : %.3f\n", expected_complexity_factor(spec));
  const RateBounds exact = exact_error_bounds(spec);
  const EstimatedBounds signal = signal_probability_bounds(spec);
  const EstimatedBounds border = border_bounds(spec);
  std::printf("  error rate : exact [%.4f, %.4f]\n", exact.min, exact.max);
  std::printf("               signal-model [%.4f, %.4f]\n", signal.min,
              signal.max);
  std::printf("               border-model [%.4f, %.4f]\n", border.min,
              border.max);
  return 0;
}

int cmd_assign(const Args& args) {
  if (args.output.empty()) {
    std::fprintf(stderr, "assign: -o <out.pla> is required\n");
    return 2;
  }
  // Negated so that NaN is rejected too.
  if (!(args.fraction >= 0.0 && args.fraction <= 1.0)) {
    std::fprintf(stderr, "assign: --fraction must be in [0, 1]\n");
    return 2;
  }
  if (!(args.threshold > 0.0 && args.threshold < 1.0)) {
    std::fprintf(stderr, "assign: --threshold must be in (0, 1)\n");
    return 2;
  }
  IncompleteSpec spec = load_pla(args.input);
  AssignmentResult result;
  if (args.policy == "ranking") {
    result = ranking_assign(spec, args.fraction);
  } else if (args.policy == "incremental") {
    result = ranking_assign_incremental(spec, args.fraction);
  } else if (args.policy == "lcf") {
    result = lcf_assign(spec, args.threshold);
  } else {
    std::fprintf(stderr, "assign: unknown policy %s\n", args.policy.c_str());
    return 2;
  }
  save_pla(spec, args.output);
  std::printf("%s: assigned %u of %u DCs (%u to the on-set) -> %s\n",
              args.policy.c_str(), result.assigned, result.dc_before,
              result.assigned_on, args.output.c_str());
  return 0;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << text << '\n';
  return true;
}

/// `synth --pipeline "<spec>"`: run an explicit pass sequence instead of
/// the flags' flow and print the flow report JSON.
int cmd_pipeline(const Args& args) {
  // The pipeline names its mapper and restructuring passes; a flow-level
  // flag would reach no pass, so it is refused rather than ignored.
  if (args.delay) {
    std::fprintf(stderr,
                 "synth: --delay has no effect with --pipeline; name "
                 "\"balance | map:delay\" in the pipeline instead\n");
    return 2;
  }
  if (args.resyn) {
    std::fprintf(stderr,
                 "synth: --resyn has no effect with --pipeline; name "
                 "\"resyn\" in the pipeline instead\n");
    return 2;
  }
  exec::Result<flow::Pipeline> pipeline = flow::parse_pipeline(args.pipeline);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "error: %s\n", pipeline.status().to_string().c_str());
    return 2;
  }
  const IncompleteSpec spec = load_pla(args.input);
  CellLibrary custom_lib = CellLibrary::generic70();
  if (!args.liberty.empty()) custom_lib = load_liberty(args.liberty);
  flow::Design design(spec, args.liberty.empty() ? nullptr : &custom_lib);
  if (exec::Status status = pipeline->run(design); !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
    return status.code() == exec::StatusCode::kInvalidArgument ? 2 : 1;
  }
  const std::string report = design.report.to_json();
  if (!args.json.empty()) {
    if (!write_text_file(args.json, report)) return 1;
    std::printf("wrote %s\n", args.json.c_str());
  } else {
    std::printf("%s\n", report.c_str());
  }
  if (!args.output.empty()) {
    if (!design.has(flow::Artifact::kNetlist)) {
      std::fprintf(stderr,
                   "-o given but the pipeline produced no netlist (add a "
                   "map:* pass)\n");
      return 2;
    }
    std::ofstream out(args.output);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.output.c_str());
      return 1;
    }
    write_verilog(design.netlist(), custom_lib, spec.name(), out);
    std::printf("wrote %s (verilog)\n", args.output.c_str());
  }
  return 0;
}

/// `cachekey <in.pla> --pipeline "<spec>"`: the serve result-cache key for
/// (spec bytes, canonical pipeline, unbudgeted budget fingerprint) —
/// exactly what rdcsynd computes for a request, so CI can assert that two
/// differently-annotated pipelines never share a cache entry.
int cmd_cachekey(const Args& args) {
  if (args.pipeline.empty()) {
    std::fprintf(stderr, "cachekey: --pipeline \"<spec>\" is required\n");
    return 2;
  }
  exec::Result<flow::Pipeline> pipeline = flow::parse_pipeline(args.pipeline);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "error: %s\n", pipeline.status().to_string().c_str());
    return 2;
  }
  std::ifstream in(args.input, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", args.input.c_str());
    return 1;
  }
  std::ostringstream bytes;
  bytes << in.rdbuf();
  const std::uint64_t key = serve::result_cache_key(
      bytes.str(), pipeline->to_string(),
      flow::budget_fingerprint(exec::BudgetLimits{}));
  std::printf("%016llx\n", static_cast<unsigned long long>(key));
  return 0;
}

/// `synth`'s flags as the pipeline spec they select: the paper's flow with
/// the --policy assign pass, `resyn` for --resyn and the delay mapper for
/// --delay. Empty for an unknown policy.
std::string flag_pipeline(const Args& args) {
  std::string spec;
  if (args.policy == "ranking")
    spec = "assign:ranking(" + format_double(args.fraction) + ")";
  else if (args.policy == "incremental")
    spec = "assign:ranking_inc(" + format_double(args.fraction) + ")";
  else if (args.policy == "lcf")
    spec = "assign:lcf(" + format_double(args.threshold) + ")";
  else if (args.policy == "conventional")
    spec = "assign:conventional";
  else
    return spec;
  spec.append(" | espresso | factor | aig");
  if (args.resyn) spec.append(" | resyn");
  spec.append(args.delay ? " | balance | map:delay" : " | map:power");
  spec.append(" | analyze | error_rate");
  return spec;
}

int cmd_synth(const Args& args) {
  if (!args.pipeline.empty()) return cmd_pipeline(args);
  const IncompleteSpec spec = load_pla(args.input);
  const std::string pipeline = flag_pipeline(args);
  if (pipeline.empty()) {
    std::fprintf(stderr, "synth: unknown policy %s\n", args.policy.c_str());
    return 2;
  }
  CellLibrary custom_lib = CellLibrary::generic70();
  if (!args.liberty.empty()) custom_lib = load_liberty(args.liberty);

  const FlowResult result = run_flow(
      spec, pipeline, args.liberty.empty() ? nullptr : &custom_lib);
  if (result.degradation == DegradationLevel::kPartial) {
    std::fprintf(stderr, "error: %s\n", result.status.to_string().c_str());
    return result.status.code() == exec::StatusCode::kInvalidArgument ? 2 : 1;
  }
  std::printf(
      "%s: %zu gates, area %.1f um^2, delay %.0f ps, power %.2f uW, "
      "error rate %.4f\n",
      spec.name().c_str(), result.stats.gates, result.stats.area,
      result.stats.delay_ps, result.stats.power_uw, result.error_rate);
  if (!args.json.empty()) {
    if (!write_text_file(args.json, result.report.to_json())) return 1;
    std::printf("wrote %s\n", args.json.c_str());
  }

  if (!args.output.empty()) {
    std::ofstream out(args.output);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.output.c_str());
      return 1;
    }
    if (args.format == "verilog") {
      write_verilog(result.netlist, custom_lib, spec.name(), out);
    } else if (args.format == "blif") {
      write_blif(result.netlist, spec.name(), out);
    } else if (args.format == "aiger") {
      Aig aig(spec.num_inputs());
      for (const auto& f : result.implementation.outputs())
        aig.add_output(aig.build(factor(minimize(f))));
      write_aiger(aig, out);
    } else {
      std::fprintf(stderr, "synth: unknown format %s\n", args.format.c_str());
      return 2;
    }
    std::printf("wrote %s (%s)\n", args.output.c_str(), args.format.c_str());
  }
  if (!args.testbench.empty()) {
    std::ofstream tb(args.testbench);
    if (!tb) {
      std::fprintf(stderr, "cannot write %s\n", args.testbench.c_str());
      return 1;
    }
    write_testbench(result.netlist, spec.name(), tb);
    std::printf("wrote %s (self-checking testbench)\n",
                args.testbench.c_str());
  }
  return 0;
}

Aig load_network(const std::string& path) {
  if (path.size() > 4 && path.substr(path.size() - 4) == ".aag") {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path);
    return parse_aiger(in);
  }
  return load_blif(path).aig;
}

int cmd_cec(const std::string& a_path, const std::string& b_path) {
  const Aig a = load_network(a_path);
  const Aig b = load_network(b_path);
  const EquivalenceResult r = check_equivalence(a, b);
  if (r.equivalent) {
    std::printf("EQUIVALENT (%zu vs %zu AND nodes)\n", a.num_ands(),
                b.num_ands());
    return 0;
  }
  std::printf("NOT EQUIVALENT: output %u differs on input vector 0x%x\n",
              r.failing_output, r.counterexample);
  return 1;
}

int cmd_renode(const Args& args) {
  // Negated so that NaN is rejected too.
  if (!(args.threshold > 0.0 && args.threshold < 1.0)) {
    std::fprintf(stderr, "renode: --threshold must be in (0, 1)\n");
    return 2;
  }
  IncompleteSpec spec = load_pla(args.input);
  conventional_assign(spec);
  Aig aig(spec.num_inputs());
  for (const auto& f : spec.outputs())
    aig.add_output(aig.build(factor(minimize(f))));

  RenodeOptions options;
  options.lcf_threshold = args.threshold;
  const RenodeResult result = renode_and_assign(aig, options);

  Rng rng0(97), rng1(97);
  const double before = internal_error_rate(aig, 3000, rng0);
  const double after = internal_error_rate(result.network, 3000, rng1);
  std::printf(
      "%s: %zu AND nodes -> %zu; %zu/%zu nodes resynthesized, %llu internal "
      "DCs (%llu reliability-assigned)\n"
      "internal error propagation: %.3f -> %.3f\n",
      spec.name().c_str(), aig.num_ands(), result.network.num_ands(),
      result.nodes_resynthesized, result.nodes_total,
      static_cast<unsigned long long>(result.sdc_patterns),
      static_cast<unsigned long long>(result.dcs_assigned), before, after);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  if (command == "cec") {
    if (argc < 4) return usage();
    try {
      return cmd_cec(argv[2], argv[3]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  Args args;
  if (!parse_args(argc, argv, 2, args)) return usage();
  try {
    if (command == "stats") return cmd_stats(args);
    if (command == "assign") return cmd_assign(args);
    if (command == "synth") return cmd_synth(args);
    if (command == "cachekey") return cmd_cachekey(args);
    if (command == "renode") return cmd_renode(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
