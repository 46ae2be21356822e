// Standard-cell library model (the 70 nm-class library of the paper's
// Design-Compiler flow, substituted by representative generic values).
//
// Delay uses a linear model: d = intrinsic + slope * load_capacitance.
// Power has a dynamic part (load + internal energy, weighted by exact
// switching activity) and a static leakage part.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace rdc {

/// Logic function of a cell (evaluation is implemented per kind).
enum class CellKind : std::uint8_t {
  kInv,
  kBuf,
  kAnd2,
  kNand2,
  kOr2,
  kNor2,
  kAnd3,
  kNand3,
  kOr3,
  kNor3,
  kAnd4,
  kNand4,
  kAoi21,  ///< !(a*b + c)
  kOai21,  ///< !((a+b) * c)
  kAoi22,  ///< !(a*b + c*d)
  kOai22,  ///< !((a+b) * (c+d))
  kXor2,
  kXnor2,
  kTie0,  ///< constant 0 driver
  kTie1,  ///< constant 1 driver
};

struct Cell {
  CellKind kind;
  std::string name;
  unsigned num_inputs;
  double area;             ///< um^2
  double input_cap;        ///< fF, per input pin
  double intrinsic_delay;  ///< ps
  double load_slope;       ///< ps per fF of output load
  double leakage;          ///< nW
  double internal_energy;  ///< fJ per output transition
};

/// Number of input pins of a cell kind.
unsigned cell_arity(CellKind kind);

/// Evaluates the cell function on 64 input vectors at once: bit b of
/// inputs[j] is pin j's value on vector b, bit b of the result the output's.
/// inputs.size() must equal cell_arity(kind).
std::uint64_t evaluate_cell(CellKind kind,
                            std::span<const std::uint64_t> inputs);

/// Evaluates the cell function on one input vector. Throws
/// std::invalid_argument if inputs.size() != cell_arity(kind).
bool evaluate_cell(CellKind kind, std::span<const bool> inputs);

class CellLibrary {
 public:
  /// The built-in generic 70 nm-class library.
  static const CellLibrary& generic70();

  /// Builds a library from explicit cells (used by the Liberty parser).
  /// Throws std::invalid_argument if kInv is missing — the mapper cannot
  /// operate without an inverter.
  static CellLibrary from_cells(std::vector<Cell> cells);

  const Cell& cell(CellKind kind) const;
  const std::vector<Cell>& cells() const { return cells_; }

  const Cell& inverter() const { return cell(CellKind::kInv); }

  /// Default load assumed during mapping before real fanout is known.
  double nominal_load() const { return 2.0 * inverter().input_cap; }

 private:
  explicit CellLibrary(std::vector<Cell> cells);
  std::vector<Cell> cells_;
  std::vector<int> index_by_kind_;
};

}  // namespace rdc
