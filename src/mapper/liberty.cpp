#include "mapper/liberty.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace rdc {
namespace {

// ---------------------------------------------------------------- lexer --

enum class TokKind { kIdent, kNumber, kString, kPunct, kEnd };

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;
  unsigned line = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string text) : text_(std::move(text)) { advance(); }

  const Token& peek() const { return current_; }
  Token next() {
    Token t = current_;
    advance();
    return t;
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("liberty line " + std::to_string(current_.line) +
                             ": " + what);
  }

 private:
  void advance() {
    skip_space_and_comments();
    current_.line = line_;
    if (pos_ >= text_.size()) {
      current_ = {TokKind::kEnd, "", line_};
      return;
    }
    const char c = text_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_'))
        ++pos_;
      current_ = {TokKind::kIdent, text_.substr(start, pos_ - start), line_};
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' || c == '.') {
      std::size_t start = pos_;
      ++pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == '-' ||
              text_[pos_] == '+'))
        ++pos_;
      current_ = {TokKind::kNumber, text_.substr(start, pos_ - start), line_};
      return;
    }
    if (c == '"') {
      std::size_t start = ++pos_;
      while (pos_ < text_.size() && text_[pos_] != '"') {
        if (text_[pos_] == '\n') ++line_;
        ++pos_;
      }
      if (pos_ >= text_.size())
        throw std::runtime_error("liberty: unterminated string");
      current_ = {TokKind::kString, text_.substr(start, pos_ - start), line_};
      ++pos_;
      return;
    }
    current_ = {TokKind::kPunct, std::string(1, c), line_};
    ++pos_;
  }

  void skip_space_and_comments() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '*') {
        pos_ += 2;
        while (pos_ + 1 < text_.size() &&
               !(text_[pos_] == '*' && text_[pos_ + 1] == '/')) {
          if (text_[pos_] == '\n') ++line_;
          ++pos_;
        }
        pos_ = std::min(pos_ + 2, text_.size());
      } else {
        break;
      }
    }
  }

  std::string text_;
  std::size_t pos_ = 0;
  unsigned line_ = 1;
  Token current_;
};

// --------------------------------------------- boolean expression parser --

struct Expr {
  enum class Op { kVar, kNot, kAnd, kOr, kXor, kConst0, kConst1 };
  Op op = Op::kConst0;
  unsigned var = 0;
  std::unique_ptr<Expr> lhs;
  std::unique_ptr<Expr> rhs;
};

class ExprParser {
 public:
  ExprParser(const std::string& text, const std::vector<std::string>& pins)
      : text_(text), pins_(pins) {}

  std::unique_ptr<Expr> parse() {
    auto e = parse_or();
    skip_space();
    if (pos_ != text_.size())
      throw std::runtime_error("liberty: trailing characters in function \"" +
                               text_ + "\"");
    return e;
  }

 private:
  std::unique_ptr<Expr> parse_or() {
    auto lhs = parse_xor();
    while (accept('|') || accept('+')) {
      auto node = std::make_unique<Expr>();
      node->op = Expr::Op::kOr;
      node->lhs = std::move(lhs);
      node->rhs = parse_xor();
      lhs = std::move(node);
    }
    return lhs;
  }

  std::unique_ptr<Expr> parse_xor() {
    auto lhs = parse_and();
    while (accept('^')) {
      auto node = std::make_unique<Expr>();
      node->op = Expr::Op::kXor;
      node->lhs = std::move(lhs);
      node->rhs = parse_and();
      lhs = std::move(node);
    }
    return lhs;
  }

  std::unique_ptr<Expr> parse_and() {
    auto lhs = parse_unary();
    while (true) {
      if (accept('&') || accept('*')) {
        auto node = std::make_unique<Expr>();
        node->op = Expr::Op::kAnd;
        node->lhs = std::move(lhs);
        node->rhs = parse_unary();
        lhs = std::move(node);
        continue;
      }
      // Implicit AND before an identifier, '(' or '!'.
      skip_space();
      if (pos_ < text_.size() &&
          (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
           text_[pos_] == '(' || text_[pos_] == '!')) {
        auto node = std::make_unique<Expr>();
        node->op = Expr::Op::kAnd;
        node->lhs = std::move(lhs);
        node->rhs = parse_unary();
        lhs = std::move(node);
        continue;
      }
      return lhs;
    }
  }

  std::unique_ptr<Expr> parse_unary() {
    if (accept('!')) {
      auto node = std::make_unique<Expr>();
      node->op = Expr::Op::kNot;
      node->lhs = parse_unary();
      return maybe_postfix_not(std::move(node));
    }
    if (accept('(')) {
      auto inner = parse_or();
      if (!accept(')'))
        throw std::runtime_error("liberty: missing ')' in function");
      return maybe_postfix_not(std::move(inner));
    }
    skip_space();
    if (pos_ < text_.size() && (text_[pos_] == '0' || text_[pos_] == '1')) {
      auto node = std::make_unique<Expr>();
      node->op = text_[pos_] == '1' ? Expr::Op::kConst1 : Expr::Op::kConst0;
      ++pos_;
      return maybe_postfix_not(std::move(node));
    }
    // Pin name.
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_'))
      ++pos_;
    if (start == pos_)
      throw std::runtime_error("liberty: expected operand in function \"" +
                               text_ + "\"");
    const std::string name = text_.substr(start, pos_ - start);
    for (unsigned i = 0; i < pins_.size(); ++i) {
      if (pins_[i] == name) {
        auto node = std::make_unique<Expr>();
        node->op = Expr::Op::kVar;
        node->var = i;
        return maybe_postfix_not(std::move(node));
      }
    }
    throw std::runtime_error("liberty: unknown pin '" + name +
                             "' in function");
  }

  std::unique_ptr<Expr> maybe_postfix_not(std::unique_ptr<Expr> e) {
    skip_space();
    while (pos_ < text_.size() && text_[pos_] == '\'') {
      ++pos_;
      auto node = std::make_unique<Expr>();
      node->op = Expr::Op::kNot;
      node->lhs = std::move(e);
      e = std::move(node);
    }
    return e;
  }

  bool accept(char c) {
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  const std::string& text_;
  const std::vector<std::string>& pins_;
  std::size_t pos_ = 0;
};

bool eval_expr(const Expr& e, std::uint32_t assignment) {
  switch (e.op) {
    case Expr::Op::kVar:
      return (assignment >> e.var) & 1u;
    case Expr::Op::kNot:
      return !eval_expr(*e.lhs, assignment);
    case Expr::Op::kAnd:
      return eval_expr(*e.lhs, assignment) && eval_expr(*e.rhs, assignment);
    case Expr::Op::kOr:
      return eval_expr(*e.lhs, assignment) || eval_expr(*e.rhs, assignment);
    case Expr::Op::kXor:
      return eval_expr(*e.lhs, assignment) != eval_expr(*e.rhs, assignment);
    case Expr::Op::kConst0:
      return false;
    case Expr::Op::kConst1:
      return true;
  }
  return false;
}

/// Matches a function (truth table over `num_inputs` pins in declaration
/// order) against the supported structural kinds.
std::optional<CellKind> match_kind(const Expr& expr, unsigned num_inputs) {
  static constexpr CellKind kAllKinds[] = {
      CellKind::kInv,   CellKind::kBuf,   CellKind::kAnd2,  CellKind::kNand2,
      CellKind::kOr2,   CellKind::kNor2,  CellKind::kAnd3,  CellKind::kNand3,
      CellKind::kOr3,   CellKind::kNor3,  CellKind::kAnd4,  CellKind::kNand4,
      CellKind::kAoi21, CellKind::kOai21, CellKind::kAoi22, CellKind::kOai22,
      CellKind::kXor2,  CellKind::kXnor2, CellKind::kTie0,  CellKind::kTie1};

  // Wider than every supported kind: no match, and 1u << num_inputs
  // below would be undefined from 32 pins on.
  unsigned widest = 0;
  for (const CellKind kind : kAllKinds)
    widest = std::max(widest, cell_arity(kind));
  if (num_inputs > widest) return std::nullopt;

  const std::uint32_t combos = 1u << num_inputs;
  for (const CellKind kind : kAllKinds) {
    if (cell_arity(kind) != num_inputs) continue;
    bool all_match = true;
    bool pins[4];
    for (std::uint32_t m = 0; m < combos && all_match; ++m) {
      for (unsigned j = 0; j < num_inputs; ++j) pins[j] = (m >> j) & 1u;
      all_match = eval_expr(expr, m) ==
                  evaluate_cell(kind, {pins, num_inputs});
    }
    if (all_match) return kind;
  }
  return std::nullopt;
}

// ------------------------------------------------------- group structure --

struct PinInfo {
  std::string name;
  bool is_output = false;
  double capacitance = 0.0;
  std::string function;
  double intrinsic_delay = 0.0;
  double load_slope = 0.0;
};

class LibertyParser {
 public:
  explicit LibertyParser(std::string text) : lex_(std::move(text)) {}

  CellLibrary parse() {
    expect_ident("library");
    skip_parenthesized();
    expect_punct("{");
    std::vector<Cell> cells;
    while (!is_punct("}")) {
      const Token t = lex_.next();
      if (t.kind == TokKind::kEnd) lex_.fail("unexpected end of file");
      if (t.kind == TokKind::kIdent && t.text == "cell") {
        cells.push_back(parse_cell());
      } else if (t.kind == TokKind::kIdent) {
        skip_attribute_or_group();
      } else {
        lex_.fail("unexpected token '" + t.text + "'");
      }
    }
    lex_.next();  // closing brace
    return CellLibrary::from_cells(std::move(cells));
  }

 private:
  Cell parse_cell() {
    Cell cell{};
    cell.name = parenthesized_name();
    expect_punct("{");
    std::vector<PinInfo> pins;
    while (!is_punct("}")) {
      const Token t = lex_.next();
      if (t.kind == TokKind::kEnd) lex_.fail("unexpected end of cell");
      if (t.kind != TokKind::kIdent) lex_.fail("expected attribute in cell");
      if (t.text == "pin") {
        pins.push_back(parse_pin());
      } else if (t.text == "area") {
        cell.area = attribute_number();
      } else if (t.text == "cell_leakage_power") {
        cell.leakage = attribute_number();
      } else if (t.text == "internal_energy") {
        cell.internal_energy = attribute_number();
      } else {
        skip_attribute_or_group();
      }
    }
    lex_.next();  // closing brace

    // Assemble: input pins in declaration order, one output pin.
    std::vector<std::string> input_names;
    double input_cap = 0.0;
    const PinInfo* output = nullptr;
    for (const PinInfo& pin : pins) {
      if (pin.is_output) {
        if (output)
          throw std::runtime_error("liberty: cell " + cell.name +
                                   " has multiple output pins");
        output = &pin;
      } else {
        input_names.push_back(pin.name);
        input_cap = std::max(input_cap, pin.capacitance);
      }
    }
    if (!output)
      throw std::runtime_error("liberty: cell " + cell.name +
                               " has no output pin");
    cell.num_inputs = static_cast<unsigned>(input_names.size());
    cell.input_cap = input_cap;
    cell.intrinsic_delay = output->intrinsic_delay;
    cell.load_slope = output->load_slope;

    ExprParser expr_parser(output->function, input_names);
    const auto expr = expr_parser.parse();
    const auto kind = match_kind(*expr, cell.num_inputs);
    if (!kind)
      throw std::runtime_error("liberty: cell " + cell.name +
                               " computes an unsupported function \"" +
                               output->function + "\"");
    cell.kind = *kind;
    return cell;
  }

  PinInfo parse_pin() {
    PinInfo pin;
    pin.name = parenthesized_name();
    expect_punct("{");
    while (!is_punct("}")) {
      const Token t = lex_.next();
      if (t.kind == TokKind::kEnd) lex_.fail("unexpected end of pin");
      if (t.kind != TokKind::kIdent) lex_.fail("expected attribute in pin");
      if (t.text == "direction") {
        const std::string dir = attribute_value();
        pin.is_output = dir == "output";
      } else if (t.text == "capacitance") {
        pin.capacitance = attribute_number();
      } else if (t.text == "function") {
        pin.function = attribute_value();
      } else if (t.text == "timing") {
        skip_parenthesized();
        expect_punct("{");
        while (!is_punct("}")) {
          const Token a = lex_.next();
          if (a.kind != TokKind::kIdent)
            lex_.fail("expected attribute in timing");
          if (a.text == "intrinsic_delay") {
            pin.intrinsic_delay = attribute_number();
          } else if (a.text == "load_slope") {
            pin.load_slope = attribute_number();
          } else {
            skip_attribute_or_group();
          }
        }
        lex_.next();
      } else {
        skip_attribute_or_group();
      }
    }
    lex_.next();
    return pin;
  }

  // -- token helpers --

  bool is_punct(const std::string& p) {
    return lex_.peek().kind == TokKind::kPunct && lex_.peek().text == p;
  }

  void expect_punct(const std::string& p) {
    if (!is_punct(p)) lex_.fail("expected '" + p + "'");
    lex_.next();
  }

  void expect_ident(const std::string& name) {
    const Token t = lex_.next();
    if (t.kind != TokKind::kIdent || t.text != name)
      lex_.fail("expected '" + name + "'");
  }

  std::string parenthesized_name() {
    expect_punct("(");
    std::string name;
    while (!is_punct(")")) {
      const Token t = lex_.next();
      if (t.kind == TokKind::kEnd) lex_.fail("unterminated '('");
      name += t.text;
    }
    lex_.next();
    return name;
  }

  void skip_parenthesized() {
    expect_punct("(");
    unsigned depth = 1;
    while (depth > 0) {
      const Token t = lex_.next();
      if (t.kind == TokKind::kEnd) lex_.fail("unterminated '('");
      if (t.kind == TokKind::kPunct && t.text == "(") ++depth;
      if (t.kind == TokKind::kPunct && t.text == ")") --depth;
    }
  }

  /// After an identifier: either `: value ;` or `(...) { ... }` — skipped.
  void skip_attribute_or_group() {
    if (is_punct(":")) {
      lex_.next();
      while (!is_punct(";")) {
        if (lex_.peek().kind == TokKind::kEnd)
          lex_.fail("unterminated attribute");
        lex_.next();
      }
      lex_.next();
      return;
    }
    if (is_punct("(")) {
      skip_parenthesized();
      if (is_punct("{")) {
        lex_.next();
        unsigned depth = 1;
        while (depth > 0) {
          const Token t = lex_.next();
          if (t.kind == TokKind::kEnd) lex_.fail("unterminated group");
          if (t.kind == TokKind::kPunct && t.text == "{") ++depth;
          if (t.kind == TokKind::kPunct && t.text == "}") --depth;
        }
      } else if (is_punct(";")) {
        lex_.next();
      }
      return;
    }
    lex_.fail("expected attribute or group");
  }

  std::string attribute_value() {
    expect_punct(":");
    std::string value;
    while (!is_punct(";")) {
      const Token t = lex_.next();
      if (t.kind == TokKind::kEnd) lex_.fail("unterminated attribute");
      value += t.text;
    }
    lex_.next();
    return value;
  }

  double attribute_number() {
    const std::string v = attribute_value();
    try {
      return std::stod(v);
    } catch (const std::exception&) {
      lex_.fail("expected numeric attribute, got \"" + v + "\"");
    }
  }

  Lexer lex_;
};

}  // namespace

CellLibrary parse_liberty(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return LibertyParser(buffer.str()).parse();
}

CellLibrary parse_liberty_string(const std::string& text) {
  return LibertyParser(text).parse();
}

CellLibrary load_liberty(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path.string());
  return parse_liberty(in);
}

}  // namespace rdc
