// Berkeley .pla reader / writer.
//
// Supports the espresso logical types used by the MCNC benchmarks the paper
// evaluates: `fd` (default; rows specify ON and DC covers, everything else
// is OFF), `fr` (ON and OFF covers, rest DC), and `fdr` (all three covers
// explicit). Directives handled: .i .o .type .p .ilb .ob .e; comments (#)
// and blank lines are skipped.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <string>

#include "tt/incomplete_spec.hpp"

namespace rdc {

/// Parses a .pla document from a stream. Throws std::runtime_error with a
/// line-numbered message on malformed input.
IncompleteSpec parse_pla(std::istream& in, std::string name);

/// Convenience: parse from an in-memory string.
IncompleteSpec parse_pla_string(const std::string& text, std::string name);

/// Loads a .pla file; the spec is named after the file stem.
IncompleteSpec load_pla(const std::filesystem::path& path);

/// Writes the spec as an fd-type .pla (one row per care-or-DC minterm).
void write_pla(const IncompleteSpec& spec, std::ostream& out);

/// Writes to a file, creating parent directories as needed.
void save_pla(const IncompleteSpec& spec, const std::filesystem::path& path);

}  // namespace rdc
