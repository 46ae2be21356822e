// Helpers for comparing run-report JSON documents in tests.
#pragma once

#include <string>

namespace rdc::test {

/// Replaces every "total_ms"/"wall_ms" value with 0 so report documents
/// compare byte-for-byte across runs.
inline std::string strip_timings(std::string json) {
  for (const std::string key : {"\"total_ms\": ", "\"wall_ms\": "}) {
    std::size_t at = 0;
    std::string out;
    std::size_t from = 0;
    while ((at = json.find(key, from)) != std::string::npos) {
      const std::size_t begin = at + key.size();
      std::size_t end = begin;
      while (end < json.size() && json[end] != ',' && json[end] != '}' &&
             json[end] != '\n')
        ++end;
      out.append(json, from, begin - from).append("0");
      from = end;
    }
    json = out.append(json, from);
  }
  return json;
}

}  // namespace rdc::test
