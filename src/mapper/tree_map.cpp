#include "mapper/tree_map.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "mapper/subject_graph.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace rdc {
namespace {

using aiglit::is_complemented;
using aiglit::node_of;

constexpr double kInf = std::numeric_limits<double>::infinity();

class TreeMapper {
 public:
  TreeMapper(const Aig& aig, const CellLibrary& lib, const MapOptions& opts)
      : aig_(aig),
        lib_(lib),
        delay_mode_(opts.objective == MapObjective::kDelay),
        fanout_(aig.fanout_counts()) {
    for (const Cell& cell : lib.cells())
      cell_costs_[static_cast<std::size_t>(cell.kind)] = {
          true, cell.area,
          cell.intrinsic_delay + cell.load_slope * lib.nominal_load()};
    const CellCost& inv = cell_costs_[static_cast<std::size_t>(CellKind::kInv)];
    inv_cost_ = delay_mode_ ? inv.delay : inv.area;
    inv_area_ = inv.area;
  }

  Netlist run() {
    solve();
    return build();
  }

 private:
  struct Choice {
    double cost = kInf;       ///< objective value for this polarity
    double tiebreak = kInf;   ///< secondary (area in delay mode)
    Match match{};            ///< the winning match, unless use_inverter
    bool use_inverter = false;  ///< realize as INV of the other polarity
  };

  /// realize()'s memo entry for a literal not realized yet.
  static constexpr std::uint32_t kUnrealized =
      std::numeric_limits<std::uint32_t>::max();

  /// A library cell's area and its delay into the nominal load.
  struct CellCost {
    bool in_library = false;
    double area = 0.0;
    double delay = 0.0;
  };

  const CellCost& cell_cost(CellKind kind) const {
    const CellCost& cost = cell_costs_[static_cast<std::size_t>(kind)];
    if (!cost.in_library) lib_.cell(kind);  // throws std::out_of_range
    return cost;
  }

  /// Objective cost of using literal L as a cell pin: pair (cost, area).
  std::pair<double, double> leaf_cost(std::uint32_t lit) const {
    const std::uint32_t node = node_of(lit);
    const bool neg = is_complemented(lit);
    if (!aig_.is_and(node)) {
      // Primary input (constants never appear as fanins after folding).
      return neg ? std::pair{inv_cost_, inv_area_} : std::pair{0.0, 0.0};
    }
    if (fanout_[node] > 1) {
      // Tree boundary: the root signal is realized in positive polarity;
      // its own cost is accounted for when its tree is mapped.
      const double base = delay_mode_ ? root_arrival_[node] : 0.0;
      return neg ? std::pair{base + inv_cost_, inv_area_}
                 : std::pair{base, 0.0};
    }
    const Choice& c = choices_[node][neg ? 1 : 0];
    return {c.cost, c.tiebreak};
  }

  void solve() {
    choices_.assign(aig_.num_nodes(), {});
    root_arrival_.assign(aig_.num_nodes(), 0.0);

    std::vector<Match> matches;
    for (std::uint32_t node = aig_.num_inputs() + 1; node < aig_.num_nodes();
         ++node) {
      enumerate_matches(aig_, node, fanout_, matches);
      std::array<Choice, 2>& choice = choices_[node];
      for (const Match& m : matches) {
        const CellCost& cell = cell_cost(m.kind);
        double cost = delay_mode_ ? 0.0 : cell.area;
        double area = cell.area;
        for (const std::uint32_t leaf : m.leaves) {
          const auto [lc, la] = leaf_cost(leaf);
          if (delay_mode_)
            cost = std::max(cost, lc);
          else
            cost += lc;
          area += la;
        }
        if (delay_mode_) cost += cell.delay;
        Choice& slot = choice[m.output_negated ? 1 : 0];
        if (cost < slot.cost ||
            (cost == slot.cost && area < slot.tiebreak)) {
          slot.cost = cost;
          slot.tiebreak = area;
          slot.match = m;
          slot.use_inverter = false;
        }
      }
      // Polarity conversion through an inverter (at most one side wins).
      const std::array<Choice, 2> base = choice;
      for (int pol = 0; pol < 2; ++pol) {
        // Tree roots are realized match-based in positive polarity (their
        // negative uses go through a boundary inverter in realize());
        // letting the positive side pick "inverter of negative" here would
        // make the two paths mutually recursive.
        if (fanout_[node] > 1 && pol == 0) continue;
        const Choice& other = base[1 - pol];
        if (other.cost + inv_cost_ < choice[pol].cost) {
          choice[pol].cost = other.cost + inv_cost_;
          choice[pol].tiebreak = other.tiebreak + inv_area_;
          choice[pol].use_inverter = true;
        }
      }
      if (fanout_[node] > 1) root_arrival_[node] = choice[0].cost;
    }
  }

  Netlist build() {
    memo_.assign(2 * std::size_t{aig_.num_nodes()}, kUnrealized);
    Netlist netlist(aig_.num_inputs());
    for (const std::uint32_t out : aig_.outputs())
      netlist.add_output(realize(netlist, node_of(out),
                                 is_complemented(out)));
    return netlist;
  }

  std::uint32_t realize(Netlist& netlist, std::uint32_t node, bool neg) {
    std::uint32_t& memo = memo_[2 * std::size_t{node} + (neg ? 1 : 0)];
    if (memo != kUnrealized) return memo;

    std::uint32_t net;
    if (node == 0) {
      net = netlist.add_gate(neg ? CellKind::kTie1 : CellKind::kTie0, {});
    } else if (!aig_.is_and(node)) {
      const std::uint32_t input_net = netlist.input_net(node - 1);
      net = neg ? netlist.add_gate(CellKind::kInv, {input_net}) : input_net;
    } else if (fanout_[node] > 1 && neg) {
      // Boundary convention: roots are realized positive; negative uses get
      // a shared inverter.
      net = netlist.add_gate(CellKind::kInv, {realize(netlist, node, false)});
    } else {
      const Choice& choice = choices_[node][neg ? 1 : 0];
      if (choice.use_inverter) {
        net = netlist.add_gate(CellKind::kInv,
                               {realize(netlist, node, !neg)});
      } else {
        const Match& m = choice.match;
        CellPins fanins = m.leaves;
        for (std::uint32_t& pin : fanins)
          pin = realize(netlist, node_of(pin), is_complemented(pin));
        net = netlist.add_gate(m.kind, fanins);
      }
    }
    // memo_ is sized once in build(), so `memo` survived the recursion.
    memo = net;
    return net;
  }

  const Aig& aig_;
  const CellLibrary& lib_;
  bool delay_mode_;
  std::vector<unsigned> fanout_;
  std::array<CellCost, 64> cell_costs_{};  ///< by CellKind
  double inv_cost_ = 0.0;  ///< objective cost of one inverter
  double inv_area_ = 0.0;
  std::vector<std::array<Choice, 2>> choices_;
  std::vector<double> root_arrival_;
  /// Net realizing each AIG literal (2 * node + negated), or kUnrealized.
  std::vector<std::uint32_t> memo_;
};

}  // namespace

Netlist map_aig(const Aig& aig, const CellLibrary& lib,
                const MapOptions& options) {
  RDC_SPAN("map.map_aig");
  obs::count(obs::Counter::kMapRuns);
  Netlist netlist = TreeMapper(aig, lib, options).run();
  obs::count(obs::Counter::kMapGates, netlist.gates().size());
  return netlist;
}

}  // namespace rdc
