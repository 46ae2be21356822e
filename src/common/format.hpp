// Number formatting shared by canonical spec strings.
#pragma once

#include <charconv>
#include <string>
#include <system_error>

namespace rdc {

/// Shortest round-tripping decimal form of `value` (std::to_chars), used
/// for canonical pass, pipeline and fault-model spec strings.
inline std::string format_double(double value) {
  char buffer[32];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc()) return "0";
  return std::string(buffer, end);
}

}  // namespace rdc
