// Domain example: protecting an opcode decoder against upstream bit flips.
//
// This is exactly the scenario the paper's introduction motivates: a block
// whose inputs come latched from a previous pipeline stage, where a failure
// upstream arrives as a *single-bit input error*. An instruction decoder is
// the textbook case of a function with a natural external DC set — illegal
// opcodes are never fetched, so their decoder outputs are don't cares.
//
// Conventionally those DCs are spent on area. This example shows what
// happens when they are spent on reliability instead: a flipped opcode bit
// that turns a legal opcode into an *illegal* one can be forced to decode
// to the same control word, masking the error.
#include <cstdio>
#include <string>
#include <vector>

#include "flow/synthesis_flow.hpp"
#include "reliability/complexity.hpp"
#include "reliability/error_rate.hpp"

namespace {

using namespace rdc;

// A toy ISA: 6-bit opcodes, 14 legal instructions, 7 control outputs
// (reg_write, mem_read, mem_write, alu_op[2:0], branch).
struct Instruction {
  std::uint32_t opcode;
  std::uint32_t controls;  // 7-bit control word
};

constexpr unsigned kOpcodeBits = 6;
constexpr unsigned kControlBits = 7;

// Opcodes chosen non-contiguously, as real ISAs end up after revisions.
constexpr Instruction kIsa[] = {
    {0b000000, 0b1000000},  // ADD   : reg_write
    {0b000001, 0b1000010},  // SUB
    {0b000100, 0b1000100},  // AND
    {0b000101, 0b1000110},  // OR
    {0b001000, 0b1001000},  // XOR
    {0b001101, 0b1001010},  // SLL
    {0b010000, 0b1101100},  // LW    : reg_write + mem_read
    {0b010001, 0b1101110},  // LB
    {0b011000, 0b0011000},  // SW    : mem_write
    {0b011001, 0b0011010},  // SB
    {0b100000, 0b0000001},  // BEQ   : branch
    {0b100001, 0b0000011},  // BNE
    {0b110000, 0b1000001},  // JAL   : reg_write + branch
    {0b111111, 0b0000000},  // NOP
};

IncompleteSpec build_decoder() {
  IncompleteSpec spec("opcode_decoder", kOpcodeBits, kControlBits);
  // Everything starts as a don't care (illegal opcode)...
  for (auto& f : spec.outputs())
    for (std::uint32_t m = 0; m < f.size(); ++m)
      f.set_phase(m, Phase::kDc);
  // ...and the legal opcodes pin down their control words.
  for (const Instruction& inst : kIsa)
    for (unsigned bit = 0; bit < kControlBits; ++bit)
      spec.output(bit).set_phase(
          inst.opcode,
          (inst.controls >> (kControlBits - 1 - bit)) & 1u
              ? Phase::kOne
              : Phase::kZero);
  return spec;
}

}  // namespace

int main() {
  const IncompleteSpec decoder = build_decoder();
  std::printf(
      "Opcode decoder: %u-bit opcodes, %zu legal instructions -> %.1f%% of "
      "the input space is don't care (C^f = %.3f)\n\n",
      kOpcodeBits, std::size(kIsa), decoder.dc_fraction() * 100.0,
      complexity_factor(decoder));

  const RateBounds bounds = exact_error_bounds(decoder);
  std::printf("Achievable error-rate range over all DC assignments: "
              "[%.4f, %.4f]\n\n", bounds.min, bounds.max);

  // Each policy is one assign pass in front of the same lower half.
  struct Row {
    const char* label;
    const char* assign;
  };
  constexpr const char* kLowerHalf =
      " | espresso | factor | aig | map:power | analyze | error_rate";
  const Row rows[] = {
      {"conventional (area-driven)", "assign:conventional"},
      {"LC^f-based (threshold .55)", "assign:lcf(0.55)"},
      {"complete reliability", "assign:all"},
  };
  std::printf("%-28s %7s %8s %12s %16s\n", "DC policy", "gates", "area",
              "error rate", "errors masked");
  double baseline = 0.0;
  for (const Row& row : rows) {
    const bool conventional = &row == &rows[0];
    const FlowResult r =
        run_flow(decoder, std::string(row.assign) + kLowerHalf);
    if (conventional) baseline = r.error_rate;
    std::printf("%-28s %7zu %8.1f %12.4f", row.label, r.stats.gates,
                r.stats.area, r.error_rate);
    if (!conventional && baseline > 0.0)
      std::printf("%15.1f%%", (baseline - r.error_rate) / baseline * 100.0);
    std::printf("\n");
  }
  std::printf(
      "\nInterpretation: a masked error means a single flipped opcode bit\n"
      "(legal -> illegal opcode) still decodes to the correct control\n"
      "word, so the corrupted instruction executes as intended.\n");
  return 0;
}
