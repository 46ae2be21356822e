// Tests for the cell library, pattern matching, tree mapping, netlist
// analysis and power estimation.
#include <gtest/gtest.h>

#include <algorithm>

#include "aig/simulate.hpp"
#include "benchdata/suite.hpp"
#include "common/bits.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "espresso/espresso.hpp"
#include "flow/pipeline.hpp"
#include "mapper/cell_library.hpp"
#include "mapper/netlist.hpp"
#include "mapper/power.hpp"
#include "mapper/subject_graph.hpp"
#include "mapper/tree_map.hpp"
#include "mapper/unmap.hpp"
#include "sop/factor.hpp"

namespace rdc {
namespace {

Aig random_aig(unsigned n, Rng& rng) {
  TernaryTruthTable f(n);
  for (std::uint32_t m = 0; m < f.size(); ++m)
    f.set_phase(m, rng.flip(0.45) ? Phase::kOne : Phase::kZero);
  Aig aig(n);
  aig.add_output(aig.build(factor(minimize(f))));
  return aig;
}

constexpr CellKind kAllCellKinds[] = {
    CellKind::kInv,   CellKind::kBuf,   CellKind::kAnd2,  CellKind::kNand2,
    CellKind::kOr2,   CellKind::kNor2,  CellKind::kAnd3,  CellKind::kNand3,
    CellKind::kOr3,   CellKind::kNor3,  CellKind::kAnd4,  CellKind::kNand4,
    CellKind::kAoi21, CellKind::kOai21, CellKind::kAoi22, CellKind::kOai22,
    CellKind::kXor2,  CellKind::kXnor2, CellKind::kTie0,  CellKind::kTie1};

/// Scalar reference simulation: every net's value on one input vector,
/// one single-vector evaluate_cell per gate.
std::vector<bool> reference_values(const Netlist& nl, std::uint32_t m) {
  std::vector<bool> value(nl.num_nets(), false);
  for (unsigned i = 0; i < nl.num_inputs(); ++i) value[i] = test_bit(m, i);
  for (const Gate& g : nl.gates()) {
    bool pins[4];
    std::size_t k = 0;
    for (const std::uint32_t f : g.fanins) pins[k++] = value[f];
    value[g.output_net] =
        evaluate_cell(g.kind, std::span<const bool>(pins, k));
  }
  return value;
}

/// Checks one simulate() sweep against the scalar reference (per-net
/// one-counts and every output bit) and its output tables against the
/// netlist's AIG.
void expect_simulation_matches_reference(const Netlist& nl) {
  const std::uint32_t vectors = num_minterms(nl.num_inputs());
  const NetlistSimulation sim = nl.simulate();
  ASSERT_EQ(sim.ones.size(), nl.num_nets());
  ASSERT_EQ(sim.outputs.size(), nl.outputs().size());
  for (const BitVec& table : sim.outputs) ASSERT_EQ(table.size(), vectors);
  std::vector<std::uint64_t> ones(nl.num_nets(), 0);
  for (std::uint32_t m = 0; m < vectors; ++m) {
    const std::vector<bool> value = reference_values(nl, m);
    for (std::uint32_t net = 0; net < nl.num_nets(); ++net)
      ones[net] += value[net];
    for (std::size_t o = 0; o < nl.outputs().size(); ++o)
      ASSERT_EQ(sim.outputs[o].get(m), value[nl.outputs()[o]])
          << "output " << o << ", vector " << m;
  }
  for (std::uint32_t net = 0; net < nl.num_nets(); ++net)
    EXPECT_EQ(sim.ones[net], ones[net]) << "net " << net;
  // BitVec equality compares whole words: the bits past 2^n must be clear.
  const Aig aig = netlist_to_aig(nl);
  const AigSimulator aig_sim(aig);
  for (unsigned o = 0; o < nl.outputs().size(); ++o)
    EXPECT_EQ(sim.outputs[o], aig_sim.output_table(o).on_bits())
        << "output " << o;
}

TEST(CellLibrary, EvaluateAllKinds) {
  const bool t = true, f = false;
  {
    const bool in[] = {t};
    EXPECT_FALSE(evaluate_cell(CellKind::kInv, {in, 1}));
    EXPECT_TRUE(evaluate_cell(CellKind::kBuf, {in, 1}));
  }
  {
    const bool in[] = {t, f};
    EXPECT_FALSE(evaluate_cell(CellKind::kAnd2, {in, 2}));
    EXPECT_TRUE(evaluate_cell(CellKind::kNand2, {in, 2}));
    EXPECT_TRUE(evaluate_cell(CellKind::kOr2, {in, 2}));
    EXPECT_FALSE(evaluate_cell(CellKind::kNor2, {in, 2}));
    EXPECT_TRUE(evaluate_cell(CellKind::kXor2, {in, 2}));
    EXPECT_FALSE(evaluate_cell(CellKind::kXnor2, {in, 2}));
  }
  {
    const bool in[] = {t, t, f};
    EXPECT_FALSE(evaluate_cell(CellKind::kAoi21, {in, 3}));   // ab+c = 1
    EXPECT_TRUE(evaluate_cell(CellKind::kOai21, {in, 3}));    // (a+b)c = 0
  }
  {
    const bool in[] = {t, f, f, t};
    EXPECT_TRUE(evaluate_cell(CellKind::kAoi22, {in, 4}));   // ab+cd = 0
    EXPECT_FALSE(evaluate_cell(CellKind::kOai22, {in, 4}));  // (a+b)(c+d)=1
  }
  EXPECT_FALSE(evaluate_cell(CellKind::kTie0, std::span<const bool>{}));
  EXPECT_TRUE(evaluate_cell(CellKind::kTie1, std::span<const bool>{}));
}

TEST(CellLibrary, Generic70HasAllKinds) {
  const CellLibrary& lib = CellLibrary::generic70();
  EXPECT_EQ(lib.cell(CellKind::kInv).name, "INVX1");
  EXPECT_EQ(lib.cell(CellKind::kNand2).num_inputs, 2u);
  EXPECT_GT(lib.cell(CellKind::kXor2).area, lib.cell(CellKind::kInv).area);
  EXPECT_GT(lib.nominal_load(), 0.0);
}

TEST(Matches, SimpleAndNode) {
  Aig aig(2);
  const std::uint32_t x =
      aig.make_and(aig.input_literal(0), aig.input_literal(1));
  aig.add_output(x);
  std::vector<Match> matches;
  enumerate_matches(aig, aiglit::node_of(x), aig.fanout_counts(), matches);
  bool has_and2 = false, has_nand2 = false, has_nor2 = false;
  for (const Match& m : matches) {
    if (m.kind == CellKind::kAnd2 && !m.output_negated) has_and2 = true;
    if (m.kind == CellKind::kNand2 && m.output_negated) has_nand2 = true;
    if (m.kind == CellKind::kNor2 && !m.output_negated) has_nor2 = true;
  }
  EXPECT_TRUE(has_and2);
  EXPECT_TRUE(has_nand2);
  EXPECT_TRUE(has_nor2);
}

TEST(Matches, XorShapeDetected) {
  Aig aig(2);
  const std::uint32_t x =
      aig.make_xor(aig.input_literal(0), aig.input_literal(1));
  aig.add_output(x);
  // x is complemented; the XOR structure sits at its node.
  std::vector<Match> matches;
  enumerate_matches(aig, aiglit::node_of(x), aig.fanout_counts(), matches);
  bool has_xor = false;
  for (const Match& m : matches)
    if (m.kind == CellKind::kXor2 || m.kind == CellKind::kXnor2)
      has_xor = true;
  EXPECT_TRUE(has_xor);
}

TEST(Matches, FanoutBlocksAbsorption) {
  Aig aig(3);
  const std::uint32_t inner =
      aig.make_and(aig.input_literal(0), aig.input_literal(1));
  const std::uint32_t outer = aig.make_and(inner, aig.input_literal(2));
  aig.add_output(outer);
  aig.add_output(inner);  // inner now multi-fanout
  std::vector<Match> matches;
  enumerate_matches(aig, aiglit::node_of(outer), aig.fanout_counts(), matches);
  for (const Match& m : matches)
    EXPECT_LE(m.leaves.size(), 2u);  // no AND3: inner cannot be absorbed
}

TEST(Netlist, AddGateAndTopology) {
  Netlist nl(2);
  const std::uint32_t inv = nl.add_gate(CellKind::kInv, {nl.input_net(0)});
  const std::uint32_t g = nl.add_gate(CellKind::kAnd2, {inv, nl.input_net(1)});
  nl.add_output(g);
  EXPECT_EQ(nl.gate_count(), 2u);
  EXPECT_EQ(nl.num_nets(), 4u);
  // !x0 & x1
  const NetlistSimulation sim = nl.simulate();
  EXPECT_TRUE(sim.outputs.at(0).get(0b10));
  EXPECT_FALSE(sim.outputs.at(0).get(0b01));
  EXPECT_THROW(nl.add_gate(CellKind::kInv, {99}), std::out_of_range);
}

TEST(Netlist, TimingIsMonotonicInDepth) {
  const CellLibrary& lib = CellLibrary::generic70();
  Netlist shallow(2);
  shallow.add_output(
      shallow.add_gate(CellKind::kAnd2,
                       {shallow.input_net(0), shallow.input_net(1)}));
  Netlist deep(2);
  std::uint32_t net = deep.add_gate(
      CellKind::kAnd2, {deep.input_net(0), deep.input_net(1)});
  for (int i = 0; i < 3; ++i) net = deep.add_gate(CellKind::kInv, {net});
  deep.add_output(net);
  EXPECT_GT(deep.critical_delay(lib), shallow.critical_delay(lib));
}

TEST(TreeMap, SingleGateFunctions) {
  Aig aig(2);
  aig.add_output(aig.make_and(aig.input_literal(0), aig.input_literal(1)));
  const Netlist nl = map_aig(aig, CellLibrary::generic70());
  EXPECT_EQ(nl.gate_count(), 1u);
  EXPECT_EQ(nl.simulate().outputs[0],
            AigSimulator(aig).output_table(0).on_bits());
}

TEST(TreeMap, ConstantAndPassthroughOutputs) {
  Aig aig(2);
  aig.add_output(aiglit::kFalse);
  aig.add_output(aiglit::kTrue);
  aig.add_output(aig.input_literal(1));
  const NetlistSimulation sim =
      map_aig(aig, CellLibrary::generic70()).simulate();
  for (std::uint32_t m = 0; m < 4; ++m) {
    EXPECT_FALSE(sim.outputs.at(0).get(m));
    EXPECT_TRUE(sim.outputs.at(1).get(m));
    EXPECT_EQ(sim.outputs.at(2).get(m), (m & 2) != 0);
  }
}

TEST(TreeMap, InvertedOutput) {
  Aig aig(2);
  aig.add_output(
      aiglit::negate(aig.make_and(aig.input_literal(0), aig.input_literal(1))));
  const Netlist nl = map_aig(aig, CellLibrary::generic70());
  // Best implementation is a single NAND2.
  EXPECT_EQ(nl.gate_count(), 1u);
  EXPECT_EQ(nl.gates()[0].kind, CellKind::kNand2);
}

TEST(TreeMap, RandomFunctionsAreEquivalent) {
  Rng rng(163);
  for (int trial = 0; trial < 15; ++trial) {
    const unsigned n = 4 + static_cast<unsigned>(rng.below(3));
    const Aig aig = random_aig(n, rng);
    for (const MapObjective obj : {MapObjective::kArea, MapObjective::kDelay}) {
      const Netlist nl = map_aig(aig, CellLibrary::generic70(), {obj});
      EXPECT_EQ(nl.simulate().outputs[0],
                AigSimulator(aig).output_table(0).on_bits())
          << "trial " << trial;
    }
  }
}

TEST(TreeMap, MultiOutputSharing) {
  Aig aig(3);
  const std::uint32_t shared =
      aig.make_and(aig.input_literal(0), aig.input_literal(1));
  aig.add_output(aig.make_and(shared, aig.input_literal(2)));
  aig.add_output(aiglit::negate(shared));
  const Netlist nl = map_aig(aig, CellLibrary::generic70());
  const AigSimulator sim(aig);
  const NetlistSimulation mapped = nl.simulate();
  EXPECT_EQ(mapped.outputs[0], sim.output_table(0).on_bits());
  EXPECT_EQ(mapped.outputs[1], sim.output_table(1).on_bits());
}

/// generic70 restricted to the cells of `kinds`.
CellLibrary generic70_subset(std::initializer_list<CellKind> kinds) {
  std::vector<Cell> cells;
  for (const CellKind kind : kinds)
    cells.push_back(CellLibrary::generic70().cell(kind));
  return CellLibrary::from_cells(std::move(cells));
}

/// Expects `nl` to use only cells of `lib` and to compute the AIG's outputs.
void expect_maps_onto(const Netlist& nl, const CellLibrary& lib,
                      const Aig& aig) {
  for (const Gate& g : nl.gates())
    EXPECT_NO_THROW(lib.cell(g.kind)) << static_cast<int>(g.kind);
  const NetlistSimulation sim = nl.simulate();
  const AigSimulator aig_sim(aig);
  for (unsigned o = 0; o < aig.outputs().size(); ++o)
    EXPECT_EQ(sim.outputs[o], aig_sim.output_table(o).on_bits())
        << "output " << o;
}

TEST(TreeMap, PartialLibrarySkipsMissingCells) {
  std::vector<Cell> cells;
  for (const Cell& cell : CellLibrary::generic70().cells())
    if (cell.kind != CellKind::kXor2 && cell.kind != CellKind::kXnor2)
      cells.push_back(cell);
  const CellLibrary lib = CellLibrary::from_cells(std::move(cells));
  Aig aig(3);
  const std::uint32_t x =
      aig.make_xor(aig.input_literal(0), aig.input_literal(1));
  aig.add_output(x);
  aig.add_output(aiglit::negate(aig.make_xor(x, aig.input_literal(2))));
  const auto is_xor = [](const Gate& g) {
    return g.kind == CellKind::kXor2 || g.kind == CellKind::kXnor2;
  };
  // The full library covers the shape with XOR cells.
  const Netlist full = map_aig(aig, CellLibrary::generic70());
  EXPECT_TRUE(std::any_of(full.gates().begin(), full.gates().end(), is_xor));
  for (const MapObjective obj : {MapObjective::kArea, MapObjective::kDelay}) {
    const Netlist nl = map_aig(aig, lib, {obj});
    EXPECT_TRUE(std::none_of(nl.gates().begin(), nl.gates().end(), is_xor));
    expect_maps_onto(nl, lib, aig);
  }
}

// NAND2 and INV leave an AND node no positive match: a shared node (a tree
// root) is then built as an inverter of its NAND.
TEST(TreeMap, NandInverterLibraryRealizesSharedNodes) {
  const CellLibrary lib =
      generic70_subset({CellKind::kInv, CellKind::kNand2});
  Aig aig(3);
  const std::uint32_t shared =
      aig.make_and(aig.input_literal(0), aig.input_literal(1));
  aig.add_output(aig.make_and(shared, aig.input_literal(2)));
  aig.add_output(aiglit::negate(shared));
  aig.add_output(shared);
  for (const MapObjective obj : {MapObjective::kArea, MapObjective::kDelay})
    expect_maps_onto(map_aig(aig, lib, {obj}), lib, aig);
  Rng rng(191);
  for (int trial = 0; trial < 5; ++trial) {
    const Aig random = random_aig(6, rng);
    expect_maps_onto(map_aig(random, lib), lib, random);
  }
}

TEST(TreeMap, InverterOnlyLibraryThrows) {
  const CellLibrary lib = generic70_subset({CellKind::kInv});
  Aig aig(2);
  aig.add_output(aig.make_and(aig.input_literal(0), aig.input_literal(1)));
  EXPECT_THROW(map_aig(aig, lib), std::invalid_argument);
}

TEST(TreeMap, DelayModeNoWorseThanAreaModeInDelay) {
  Rng rng(167);
  int delay_wins = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const Aig aig = random_aig(6, rng);
    const CellLibrary& lib = CellLibrary::generic70();
    const double d_area =
        map_aig(aig, lib, {MapObjective::kArea}).critical_delay(lib);
    const double d_delay =
        map_aig(aig, lib, {MapObjective::kDelay}).critical_delay(lib);
    if (d_delay <= d_area + 1e-9) ++delay_wins;
  }
  // The DP uses estimated loads, so exact dominance is not guaranteed, but
  // it should hold in the large majority of cases.
  EXPECT_GE(delay_wins, 7);
}

// n = 0, 1 and 5 leave part of the one simulation word unused, n = 6
// fills it exactly, n = 7 and 12 span several words. map:power maps with the area
// objective.
TEST(NetlistSim, MappedNetlistsMatchScalarReference) {
  Rng rng(179);
  for (const unsigned n : {0u, 1u, 5u, 6u, 7u, 12u}) {
    const Aig aig = random_aig(n, rng);
    for (const MapObjective obj : {MapObjective::kArea, MapObjective::kDelay}) {
      SCOPED_TRACE("n = " + std::to_string(n) + ", objective " +
                   std::to_string(static_cast<int>(obj)));
      expect_simulation_matches_reference(
          map_aig(aig, CellLibrary::generic70(), {obj}));
    }
  }
}

TEST(NetlistSim, EveryCellKindMatchesScalarReference) {
  for (const unsigned n : {4u, 7u}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    Netlist nl(n);
    for (std::size_t i = 0; i < std::size(kAllCellKinds); ++i) {
      const CellKind kind = kAllCellKinds[i];
      EXPECT_EQ(cell_arity(kind),
                CellLibrary::generic70().cell(kind).num_inputs);
      std::vector<std::uint32_t> fanins;
      for (unsigned j = 0; j < cell_arity(kind); ++j)
        fanins.push_back(
            static_cast<std::uint32_t>((3 * i + j) % nl.num_nets()));
      nl.add_output(nl.add_gate(kind, std::move(fanins)));
    }
    expect_simulation_matches_reference(nl);
  }
}

/// A netlist of `extra` + 22 gates on n inputs: a TIE0 and a TIE1 first
/// (so n = 0 has nets to wire), every other kind once in random order,
/// then random kinds; fanins are random earlier nets and the outputs are
/// random nets of all three sorts (inputs, ties, logic).
Netlist random_netlist(unsigned n, unsigned extra, Rng& rng) {
  Netlist nl(n);
  nl.add_gate(CellKind::kTie0, {});
  nl.add_gate(CellKind::kTie1, {});
  std::vector<CellKind> kinds(std::begin(kAllCellKinds),
                              std::end(kAllCellKinds));
  for (std::size_t i = kinds.size() - 1; i > 0; --i)
    std::swap(kinds[i], kinds[rng.below(i + 1)]);
  for (unsigned i = 0; i < extra; ++i)
    kinds.push_back(kAllCellKinds[rng.below(std::size(kAllCellKinds))]);
  for (const CellKind kind : kinds) {
    std::vector<std::uint32_t> fanins;
    for (unsigned j = 0; j < cell_arity(kind); ++j)
      fanins.push_back(static_cast<std::uint32_t>(rng.below(nl.num_nets())));
    nl.add_gate(kind, fanins);
  }
  for (int o = 0; o < 6; ++o)
    nl.add_output(static_cast<std::uint32_t>(rng.below(nl.num_nets())));
  nl.add_output(nl.num_nets() - 1);
  return nl;
}

// Every n from 0 to 13: below 6 the bits above 2^n of the one word repeat
// the vectors, 6 to 8 leave part of the first chunk of eight simulation
// words unused, and from 9 on the blocks fill whole chunks.
TEST(NetlistSim, RandomNetlistsOfEveryKindMatchScalarReference) {
  Rng rng(181);
  for (unsigned n = 0; n <= 13; ++n) {
    for (const unsigned extra : {0u, 40u}) {
      SCOPED_TRACE("n = " + std::to_string(n) + ", " +
                   std::to_string(extra) + " extra gates");
      expect_simulation_matches_reference(random_netlist(n, extra, rng));
    }
  }
}

TEST(NetlistSim, SizeAndArityLimits) {
  Netlist big(21);
  big.add_output(
      big.add_gate(CellKind::kAnd2, {big.input_net(0), big.input_net(20)}));
  EXPECT_THROW(big.simulate(), std::invalid_argument);
  EXPECT_THROW(estimate_power(big, CellLibrary::generic70()),
               std::invalid_argument);

  Netlist nl(4);
  EXPECT_THROW(nl.add_gate(CellKind::kAoi22, {0, 1}), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(CellKind::kInv, {}), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(CellKind::kTie1, {0}), std::invalid_argument);
  EXPECT_EQ(nl.gate_count(), 0u);
  const bool pins[] = {true, false};
  EXPECT_THROW(evaluate_cell(CellKind::kAnd3, {pins, 2}),
               std::invalid_argument);
}

TEST(Power, ProbabilitiesExact) {
  Netlist nl(2);
  const std::uint32_t g =
      nl.add_gate(CellKind::kAnd2, {nl.input_net(0), nl.input_net(1)});
  nl.add_output(g);
  // Each input is 1 on two of the four vectors, the AND on one.
  const std::vector<std::uint64_t> ones = nl.simulate().ones;
  EXPECT_EQ(ones[0], 2u);
  EXPECT_EQ(ones[1], 2u);
  EXPECT_EQ(ones[g], 1u);
}

TEST(Power, ConstantNetsDontSwitch) {
  Netlist nl(1);
  const std::uint32_t t = nl.add_gate(CellKind::kTie1, {});
  nl.add_output(t);
  const PowerReport report = estimate_power(nl, CellLibrary::generic70());
  EXPECT_DOUBLE_EQ(report.dynamic_uw, 0.0);
  EXPECT_GT(report.leakage_nw, 0.0);
}

TEST(Power, MoreGatesMorePower) {
  Rng rng(173);
  const Aig small = random_aig(4, rng);
  const CellLibrary& lib = CellLibrary::generic70();
  const Netlist nl = map_aig(small, lib);
  const NetlistStats stats = analyze_netlist(nl, lib);
  EXPECT_EQ(stats.gates, nl.gate_count());
  EXPECT_GT(stats.area, 0.0);
  EXPECT_GT(stats.delay_ps, 0.0);
  EXPECT_GT(stats.power_uw, 0.0);
}

// --- Table-1 goldens --------------------------------------------------------
//
// The canonical flow's factor trees and mapped netlists on all twelve
// Table-1 circuits, folded into FNV-1a fingerprints. Gate counts and the
// area/delay/power totals cannot see a netlist whose gates were reordered
// or rewired; these can. A change meant to move them updates the constants.

/// Runs `pipeline` on a fresh Design of every Table-1 circuit and folds
/// `fold(design, hash)` over them in suite order.
template <typename Fold>
std::uint64_t fingerprint_table1(const std::string& pipeline, Fold fold) {
  exec::Result<flow::Pipeline> parsed = flow::parse_pipeline(pipeline);
  EXPECT_TRUE(parsed.ok()) << pipeline;
  static const std::vector<IncompleteSpec> suite = table1_suite();
  std::uint64_t hash = kFnv1aOffset;
  for (const IncompleteSpec& spec : suite) {
    flow::Design design(spec);
    const exec::Status status = parsed->run(design);
    EXPECT_TRUE(status.ok()) << spec.name() << ": " << status.to_string();
    hash = fold(design, hash);
  }
  return hash;
}

/// Every gate's kind, fanin nets and output net, then the output list.
std::uint64_t hash_netlist(const flow::Design& design, std::uint64_t hash) {
  const Netlist& nl = design.netlist();
  hash = fnv1a_u64(nl.num_inputs(), hash);
  hash = fnv1a_u64(nl.gate_count(), hash);
  for (const Gate& g : nl.gates()) {
    hash = fnv1a_u64(static_cast<std::uint64_t>(g.kind), hash);
    hash = fnv1a_u64(g.fanins.size(), hash);
    for (const std::uint32_t f : g.fanins) hash = fnv1a_u64(f, hash);
    hash = fnv1a_u64(g.output_net, hash);
  }
  hash = fnv1a_u64(nl.outputs().size(), hash);
  for (const std::uint32_t out : nl.outputs()) hash = fnv1a_u64(out, hash);
  return hash;
}

/// The expression text of every output's factor tree.
std::uint64_t hash_factors(const flow::Design& design, std::uint64_t hash) {
  hash = fnv1a_u64(design.factors().size(), hash);
  for (const FactorTree& tree : design.factors())
    hash = fnv1a(to_string(tree) + "\n", hash);
  return hash;
}

TEST(LowerHalfGolden, FactorFingerprint) {
  EXPECT_EQ(fingerprint_table1("assign:ranking(0.5) | espresso | factor",
                               hash_factors),
            0x16cf5551da4c6579ull);
}

TEST(LowerHalfGolden, PowerNetlistFingerprint) {
  EXPECT_EQ(fingerprint_table1(
                "assign:ranking(0.5) | espresso | factor | aig | map:power",
                hash_netlist),
            0x7d3ca75254efbaa8ull);
}

TEST(LowerHalfGolden, DelayNetlistFingerprint) {
  EXPECT_EQ(fingerprint_table1("assign:ranking(0.5) | espresso | factor | "
                               "aig | balance | map:delay",
                               hash_netlist),
            0x47d35589e4ff5854ull);
}

}  // namespace
}  // namespace rdc
