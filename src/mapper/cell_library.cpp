#include "mapper/cell_library.hpp"

#include <algorithm>
#include <stdexcept>

namespace rdc {

unsigned cell_arity(CellKind kind) {
  switch (kind) {
    case CellKind::kTie0:
    case CellKind::kTie1:
      return 0;
    case CellKind::kInv:
    case CellKind::kBuf:
      return 1;
    case CellKind::kAnd2:
    case CellKind::kNand2:
    case CellKind::kOr2:
    case CellKind::kNor2:
    case CellKind::kXor2:
    case CellKind::kXnor2:
      return 2;
    case CellKind::kAnd3:
    case CellKind::kNand3:
    case CellKind::kOr3:
    case CellKind::kNor3:
    case CellKind::kAoi21:
    case CellKind::kOai21:
      return 3;
    case CellKind::kAnd4:
    case CellKind::kNand4:
    case CellKind::kAoi22:
    case CellKind::kOai22:
      return 4;
  }
  return 0;
}

bool evaluate_cell(CellKind kind, std::span<const bool> in) {
  if (in.size() != cell_arity(kind))
    throw std::invalid_argument("evaluate_cell: wrong number of inputs");
  std::uint64_t words[4] = {};
  std::copy(in.begin(), in.end(), words);
  const std::uint64_t* pin[4] = {&words[0], &words[1], &words[2], &words[3]};
  std::uint64_t out = 0;
  evaluate_cell_words<1>(kind, pin, &out);
  return out & 1u;
}

CellLibrary CellLibrary::from_cells(std::vector<Cell> cells) {
  bool has_inverter = false;
  for (const Cell& c : cells) has_inverter |= c.kind == CellKind::kInv;
  if (!has_inverter)
    throw std::invalid_argument("CellLibrary: an inverter cell is required");
  return CellLibrary(std::move(cells));
}

CellLibrary::CellLibrary(std::vector<Cell> cells) : cells_(std::move(cells)) {
  index_by_kind_.assign(64, -1);
  for (std::size_t i = 0; i < cells_.size(); ++i)
    index_by_kind_[static_cast<std::size_t>(cells_[i].kind)] =
        static_cast<int>(i);
}

const Cell& CellLibrary::cell(CellKind kind) const {
  const int idx = index_by_kind_[static_cast<std::size_t>(kind)];
  if (idx < 0) throw std::out_of_range("cell kind not in library");
  return cells_[static_cast<std::size_t>(idx)];
}

const CellLibrary& CellLibrary::generic70() {
  // Representative 70 nm-class values: area in um^2, caps in fF, delays in
  // ps, leakage in nW, internal energy in fJ per transition.
  static const CellLibrary lib(std::vector<Cell>{
      // kind              name      #in  area  cap  intr  slope leak  eint
      {CellKind::kInv, "INVX1", 1, 1.00, 1.0, 8.0, 2.0, 1.0, 0.40},
      {CellKind::kBuf, "BUFX1", 1, 1.33, 1.0, 16.0, 1.8, 1.4, 0.60},
      {CellKind::kAnd2, "AND2X1", 2, 1.67, 1.0, 18.0, 2.2, 2.0, 0.80},
      {CellKind::kNand2, "NAND2X1", 2, 1.33, 1.1, 12.0, 2.3, 1.6, 0.55},
      {CellKind::kOr2, "OR2X1", 2, 1.67, 1.0, 20.0, 2.4, 2.0, 0.85},
      {CellKind::kNor2, "NOR2X1", 2, 1.33, 1.2, 14.0, 2.8, 1.6, 0.60},
      {CellKind::kAnd3, "AND3X1", 3, 2.00, 1.0, 22.0, 2.3, 2.6, 1.00},
      {CellKind::kNand3, "NAND3X1", 3, 1.67, 1.2, 16.0, 2.8, 2.2, 0.75},
      {CellKind::kOr3, "OR3X1", 3, 2.00, 1.0, 24.0, 2.6, 2.6, 1.05},
      {CellKind::kNor3, "NOR3X1", 3, 1.67, 1.3, 20.0, 3.4, 2.2, 0.80},
      {CellKind::kAnd4, "AND4X1", 4, 2.33, 1.0, 26.0, 2.4, 3.1, 1.20},
      {CellKind::kNand4, "NAND4X1", 4, 2.00, 1.3, 20.0, 3.2, 2.8, 0.95},
      {CellKind::kAoi21, "AOI21X1", 3, 1.67, 1.2, 16.0, 2.9, 2.0, 0.70},
      {CellKind::kOai21, "OAI21X1", 3, 1.67, 1.2, 16.0, 2.9, 2.0, 0.70},
      {CellKind::kAoi22, "AOI22X1", 4, 2.00, 1.3, 20.0, 3.3, 2.4, 0.90},
      {CellKind::kOai22, "OAI22X1", 4, 2.00, 1.3, 20.0, 3.3, 2.4, 0.90},
      {CellKind::kXor2, "XOR2X1", 2, 2.33, 1.8, 24.0, 3.0, 3.0, 1.30},
      {CellKind::kXnor2, "XNOR2X1", 2, 2.33, 1.8, 24.0, 3.0, 3.0, 1.30},
      {CellKind::kTie0, "TIELO", 0, 0.33, 0.0, 0.0, 0.0, 0.2, 0.0},
      {CellKind::kTie1, "TIEHI", 0, 0.33, 0.0, 0.0, 0.0, 0.2, 0.0},
  });
  return lib;
}

}  // namespace rdc
