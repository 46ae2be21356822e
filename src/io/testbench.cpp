#include "io/testbench.hpp"

#include <cstdint>
#include <ostream>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"

namespace rdc {
namespace {

/// Above this many inputs the testbench applies sampled vectors.
constexpr unsigned kMaxExhaustiveInputs = 16;
constexpr std::uint32_t kSampledVectors = 1024;
constexpr std::uint64_t kSampleSeed = 1;

}  // namespace

void write_testbench(const Netlist& netlist, const std::string& module_name,
                     std::ostream& out) {
  const unsigned n = netlist.num_inputs();
  const std::size_t num_outputs = netlist.outputs().size();
  const bool exhaustive = n <= kMaxExhaustiveInputs;
  const NetlistSimulation sim = netlist.simulate();

  // Collect the stimulus set.
  std::vector<std::uint32_t> vectors;
  if (exhaustive) {
    vectors.resize(num_minterms(n));
    for (std::uint32_t m = 0; m < vectors.size(); ++m) vectors[m] = m;
  } else {
    Rng rng(kSampleSeed);
    vectors.reserve(kSampledVectors);
    for (std::uint32_t i = 0; i < kSampledVectors; ++i)
      vectors.push_back(
          static_cast<std::uint32_t>(rng.below(num_minterms(n))));
  }

  out << "// Self-checking testbench for " << module_name
      << " — generated by rdcsyn (" << vectors.size() << " vectors, "
      << (exhaustive ? "exhaustive" : "sampled") << ")\n";
  out << "`timescale 1ns/1ps\n";
  out << "module " << module_name << "_tb;\n";
  out << "  reg [" << (n - 1) << ":0] in;\n";
  out << "  wire [" << (num_outputs - 1) << ":0] out;\n";
  out << "  " << module_name << " dut (";
  for (unsigned i = 0; i < n; ++i)
    out << (i ? ", " : "") << ".i" << i << "(in[" << i << "])";
  for (std::size_t o = 0; o < num_outputs; ++o)
    out << ", .o" << o << "(out[" << o << "])";
  out << ");\n";
  out << "  integer errors = 0;\n";
  out << "  task check(input [" << (n - 1) << ":0] vec, input ["
      << (num_outputs - 1) << ":0] expected);\n";
  out << "    begin\n";
  out << "      in = vec; #1;\n";
  out << "      if (out !== expected) begin\n";
  out << "        $display(\"MISMATCH at vec=%b: got %b expected %b\", vec, "
         "out, expected);\n";
  out << "        errors = errors + 1;\n";
  out << "      end\n";
  out << "    end\n";
  out << "  endtask\n";
  out << "  initial begin\n";
  std::string expected(num_outputs, '0');
  for (const std::uint32_t vec : vectors) {
    for (std::size_t o = 0; o < num_outputs; ++o)
      expected[num_outputs - 1 - o] = sim.outputs[o].get(vec) ? '1' : '0';
    out << "    check(" << n << "'d" << vec << ", " << num_outputs << "'b"
        << expected << ");\n";
  }
  out << "    if (errors == 0) $display(\"PASS: " << vectors.size()
      << " vectors\");\n";
  out << "    else $fatal(1, \"FAIL: %0d mismatches\", errors);\n";
  out << "    $finish;\n";
  out << "  end\n";
  out << "endmodule\n";
}

}  // namespace rdc
