#include "pla/pla_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "pla/cover.hpp"

namespace rdc {
namespace {

enum class PlaType { kF, kFd, kFr, kFdr };

PlaType parse_type(const std::string& t, unsigned line) {
  if (t == "f") return PlaType::kF;
  if (t == "fd") return PlaType::kFd;
  if (t == "fr") return PlaType::kFr;
  if (t == "fdr") return PlaType::kFdr;
  throw std::runtime_error("pla line " + std::to_string(line) +
                           ": unsupported .type " + t);
}

[[noreturn]] void fail(unsigned line, const std::string& what) {
  throw std::runtime_error("pla line " + std::to_string(line) + ": " + what);
}

struct RawPla {
  unsigned num_inputs = 0;
  unsigned num_outputs = 0;
  PlaType type = PlaType::kFd;
  // Per-output covers accumulated from the cube rows.
  std::vector<std::vector<Cube>> on, off, dc;
};

/// Each output costs three 2^n-minterm bitsets downstream; this cap keeps a
/// hostile ".o 4000000000" header a parse error instead of an allocation
/// bomb while staying far above any real benchmark (Table 1 tops out at 8).
constexpr unsigned kMaxPlaOutputs = 256;

RawPla read_raw(std::istream& in) {
  RawPla pla;
  bool sized = false;
  unsigned line_no = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments and surrounding whitespace.
    if (const auto hash = line.find('#'); hash != std::string::npos)
      line.erase(hash);
    std::istringstream ls(line);
    std::string tok;
    if (!(ls >> tok)) continue;

    if (tok == ".i") {
      // Once cube rows were parsed against one geometry, changing it would
      // silently misalign every row already read.
      if (sized) fail(line_no, ".i after cube rows");
      if (!(ls >> pla.num_inputs)) fail(line_no, "missing .i value");
      if (pla.num_inputs == 0 || pla.num_inputs > TernaryTruthTable::kMaxInputs)
        fail(line_no, ".i out of supported range [1,20]");
    } else if (tok == ".o") {
      if (sized) fail(line_no, ".o after cube rows");
      if (!(ls >> pla.num_outputs)) fail(line_no, "missing .o value");
      if (pla.num_outputs == 0) fail(line_no, ".o must be positive");
      if (pla.num_outputs > kMaxPlaOutputs)
        fail(line_no, ".o exceeds limit of " +
                          std::to_string(kMaxPlaOutputs));
    } else if (tok == ".type") {
      std::string t;
      if (!(ls >> t)) fail(line_no, "missing .type value");
      pla.type = parse_type(t, line_no);
    } else if (tok == ".p" || tok == ".ilb" || tok == ".ob" ||
               tok == ".phase" || tok == ".pair") {
      continue;  // informational / unsupported-but-harmless directives
    } else if (tok == ".e" || tok == ".end") {
      break;
    } else if (tok[0] == '.') {
      fail(line_no, "unsupported directive " + tok);
    } else {
      // Cube row: input part then output part (possibly whitespace-joined).
      if (pla.num_inputs == 0 || pla.num_outputs == 0)
        fail(line_no, "cube row before .i/.o");
      if (!sized) {
        pla.on.resize(pla.num_outputs);
        pla.off.resize(pla.num_outputs);
        pla.dc.resize(pla.num_outputs);
        sized = true;
      }
      std::string rest;
      std::string part;
      std::string row = tok;
      while (ls >> part) row += part;
      if (row.size() != pla.num_inputs + pla.num_outputs)
        fail(line_no, "row width " + std::to_string(row.size()) +
                          " != .i + .o = " +
                          std::to_string(pla.num_inputs + pla.num_outputs));
      Cube input;
      try {
        input = Cube::parse(row.substr(0, pla.num_inputs));
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
      for (unsigned o = 0; o < pla.num_outputs; ++o) {
        const char c = row[pla.num_inputs + o];
        switch (c) {
          case '1':
          case '4':
            pla.on[o].push_back(input);
            break;
          case '0':
            // In f/fd types '0' means "no statement about this output".
            if (pla.type == PlaType::kFr || pla.type == PlaType::kFdr)
              pla.off[o].push_back(input);
            break;
          case '-':
          case '2':
            if (pla.type == PlaType::kFd || pla.type == PlaType::kFdr)
              pla.dc[o].push_back(input);
            break;
          case '~':
          case '3':
            break;  // no statement
          default:
            fail(line_no, std::string("bad output character '") + c + "'");
        }
      }
    }
  }
  if (pla.num_inputs == 0 || pla.num_outputs == 0)
    throw std::runtime_error("pla: missing .i/.o header");
  if (!sized) {
    pla.on.resize(pla.num_outputs);
    pla.off.resize(pla.num_outputs);
    pla.dc.resize(pla.num_outputs);
  }
  return pla;
}

}  // namespace

IncompleteSpec parse_pla(std::istream& in, std::string name) {
  const RawPla pla = read_raw(in);
  IncompleteSpec spec(std::move(name), pla.num_inputs, pla.num_outputs);
  const std::uint32_t size = num_minterms(pla.num_inputs);
  for (unsigned o = 0; o < pla.num_outputs; ++o) {
    const Cover on(pla.num_inputs, pla.on[o]);
    const Cover off(pla.num_inputs, pla.off[o]);
    const Cover dc(pla.num_inputs, pla.dc[o]);
    TernaryTruthTable& tt = spec.output(o);
    for (std::uint32_t m = 0; m < size; ++m) {
      // Background phase depends on which covers the type makes explicit.
      Phase p = (pla.type == PlaType::kFr) ? Phase::kDc : Phase::kZero;
      if (pla.type != PlaType::kFr && dc.covers_minterm(m)) p = Phase::kDc;
      if (pla.type == PlaType::kFr && off.covers_minterm(m)) p = Phase::kZero;
      if (pla.type == PlaType::kFdr) {
        if (dc.covers_minterm(m)) p = Phase::kDc;
        if (off.covers_minterm(m)) p = Phase::kZero;
      }
      if (on.covers_minterm(m)) p = Phase::kOne;  // ON wins over overlaps
      tt.set_phase(m, p);
    }
  }
  return spec;
}

IncompleteSpec parse_pla_string(const std::string& text, std::string name) {
  std::istringstream in(text);
  return parse_pla(in, std::move(name));
}

IncompleteSpec load_pla(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path.string());
  return parse_pla(in, path.stem().string());
}

void write_pla(const IncompleteSpec& spec, std::ostream& out) {
  out << "# " << spec.name() << " — written by rdcsyn\n";
  out << ".i " << spec.num_inputs() << "\n";
  out << ".o " << spec.num_outputs() << "\n";
  out << ".type fd\n";

  // One row per minterm that is ON or DC for at least one output.
  std::vector<std::string> rows;
  const std::uint32_t size = num_minterms(spec.num_inputs());
  for (std::uint32_t m = 0; m < size; ++m) {
    std::string outs;
    bool interesting = false;
    for (unsigned o = 0; o < spec.num_outputs(); ++o) {
      switch (spec.output(o).phase(m)) {
        case Phase::kOne:
          outs.push_back('1');
          interesting = true;
          break;
        case Phase::kDc:
          outs.push_back('-');
          interesting = true;
          break;
        case Phase::kZero:
          outs.push_back('0');
          break;
      }
    }
    if (!interesting) continue;
    rows.push_back(Cube::minterm(m, spec.num_inputs()).to_string(
                       spec.num_inputs()) +
                   " " + outs);
  }
  out << ".p " << rows.size() << "\n";
  for (const auto& r : rows) out << r << "\n";
  out << ".e\n";
}

void save_pla(const IncompleteSpec& spec, const std::filesystem::path& path) {
  if (path.has_parent_path())
    std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  write_pla(spec, out);
}

}  // namespace rdc
