// Standard-cell library model (the 70 nm-class library of the paper's
// Design-Compiler flow, substituted by representative generic values).
//
// Delay uses a linear model: d = intrinsic + slope * load_capacitance.
// Power has a dynamic part (load + internal energy, weighted by exact
// switching activity) and a static leakage part.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
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

/// One id per cell pin (a net, or an AIG literal while matching), stored
/// inline: no cell has more than four pins.
class CellPins {
 public:
  static constexpr std::size_t kCapacity = 4;

  CellPins() = default;
  /// Requires ids.size() <= kCapacity.
  explicit CellPins(std::span<const std::uint32_t> ids)
      : size_(static_cast<std::uint8_t>(ids.size())) {
    std::copy(ids.begin(), ids.end(), ids_.begin());
  }
  CellPins(std::initializer_list<std::uint32_t> ids)
      : CellPins(std::span(ids.begin(), ids.size())) {}

  const std::uint32_t* begin() const { return ids_.data(); }
  const std::uint32_t* end() const { return ids_.data() + size_; }
  std::uint32_t* begin() { return ids_.data(); }
  std::uint32_t* end() { return ids_.data() + size_; }
  std::size_t size() const { return size_; }
  std::uint32_t operator[](std::size_t pin) const { return ids_[pin]; }
  std::uint32_t& operator[](std::size_t pin) { return ids_[pin]; }

  /// Inserts `id` before pin `pos`. Requires size() < kCapacity.
  void insert(std::size_t pos, std::uint32_t id) {
    std::copy_backward(begin() + pos, end(), end() + 1);
    ids_[pos] = id;
    ++size_;
  }

  /// Lexicographic, a proper prefix first (as std::vector orders).
  friend bool operator<(const CellPins& x, const CellPins& y) {
    return std::lexicographical_compare(x.begin(), x.end(), y.begin(),
                                        y.end());
  }
  friend bool operator==(const CellPins& x, const CellPins& y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  }

 private:
  std::array<std::uint32_t, kCapacity> ids_{};
  std::uint8_t size_ = 0;
};

/// Evaluates the cell function on W words at once: out[w] = f(pin[0][w],
/// ..., pin[k-1][w]) for w < W, k = cell_arity(kind); bit b of a word is
/// one input vector. Only the first k of the four pin pointers are read. The switch is outside the word loop, so
/// each kind runs its own straight loop; the netlist simulator calls this
/// once per gate per chunk of words.
template <std::size_t W>
inline void evaluate_cell_words(CellKind kind, const std::uint64_t* const* pin,
                                std::uint64_t* out) {
  const std::uint64_t* a = pin[0];
  const std::uint64_t* b = pin[1];
  const std::uint64_t* c = pin[2];
  const std::uint64_t* d = pin[3];
  // The results go to a local first: `out` may not alias a pin, but the
  // compiler cannot know that.
  std::uint64_t r[W] = {};
  const auto words = [&](auto f) {
    for (std::size_t w = 0; w < W; ++w) r[w] = f(w);
  };
  switch (kind) {
    case CellKind::kInv: words([&](std::size_t w) { return ~a[w]; }); break;
    case CellKind::kBuf: words([&](std::size_t w) { return a[w]; }); break;
    case CellKind::kAnd2:
      words([&](std::size_t w) { return a[w] & b[w]; });
      break;
    case CellKind::kNand2:
      words([&](std::size_t w) { return ~(a[w] & b[w]); });
      break;
    case CellKind::kOr2:
      words([&](std::size_t w) { return a[w] | b[w]; });
      break;
    case CellKind::kNor2:
      words([&](std::size_t w) { return ~(a[w] | b[w]); });
      break;
    case CellKind::kAnd3:
      words([&](std::size_t w) { return a[w] & b[w] & c[w]; });
      break;
    case CellKind::kNand3:
      words([&](std::size_t w) { return ~(a[w] & b[w] & c[w]); });
      break;
    case CellKind::kOr3:
      words([&](std::size_t w) { return a[w] | b[w] | c[w]; });
      break;
    case CellKind::kNor3:
      words([&](std::size_t w) { return ~(a[w] | b[w] | c[w]); });
      break;
    case CellKind::kAnd4:
      words([&](std::size_t w) { return a[w] & b[w] & c[w] & d[w]; });
      break;
    case CellKind::kNand4:
      words([&](std::size_t w) { return ~(a[w] & b[w] & c[w] & d[w]); });
      break;
    case CellKind::kAoi21:
      words([&](std::size_t w) { return ~((a[w] & b[w]) | c[w]); });
      break;
    case CellKind::kOai21:
      words([&](std::size_t w) { return ~((a[w] | b[w]) & c[w]); });
      break;
    case CellKind::kAoi22:
      words([&](std::size_t w) { return ~((a[w] & b[w]) | (c[w] & d[w])); });
      break;
    case CellKind::kOai22:
      words([&](std::size_t w) { return ~((a[w] | b[w]) & (c[w] | d[w])); });
      break;
    case CellKind::kXor2:
      words([&](std::size_t w) { return a[w] ^ b[w]; });
      break;
    case CellKind::kXnor2:
      words([&](std::size_t w) { return ~(a[w] ^ b[w]); });
      break;
    case CellKind::kTie0:
      words([](std::size_t) { return std::uint64_t{0}; });
      break;
    case CellKind::kTie1:
      words([](std::size_t) { return ~std::uint64_t{0}; });
      break;
  }
  std::copy(r, r + W, out);
}

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
