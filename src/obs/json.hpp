// Minimal JSON support for the observability layer: a streaming writer
// (used by the trace exporter and the run reports) and a small recursive
// parser (used by the report round-trip tests and the rdc_json_check CI
// tool). Deliberately tiny — documents we emit ourselves plus enough of
// RFC 8259 to validate them; not a general-purpose JSON library.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace rdc::obs {

/// Streaming JSON writer with two-space pretty printing (or single-line
/// compact output for JSONL sinks like the rdc.events.v1 log). Commas and
/// newlines are managed by a nesting stack, so callers only describe
/// structure: begin_object / key / value / end_object. Numbers are written
/// with std::to_chars, so doubles round-trip exactly and the output is
/// byte-deterministic for identical inputs.
class JsonWriter {
 public:
  JsonWriter() = default;
  /// compact=true suppresses newlines and indentation ({"a": 1, "b": 2}).
  explicit JsonWriter(bool compact) : compact_(compact) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits `"name":` — must be followed by a value or container.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(bool v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  /// Any other integer type routes through the 64-bit overloads.
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool> &&
             !std::is_same_v<T, std::uint64_t> && !std::is_same_v<T, std::int64_t>)
  JsonWriter& value(T v) {
    if constexpr (std::is_signed_v<T>)
      return value(static_cast<std::int64_t>(v));
    else
      return value(static_cast<std::uint64_t>(v));
  }

  /// Splices `json` into the output verbatim, in value position. The
  /// caller guarantees it is one complete JSON value; used to replay
  /// journaled report rows byte-for-byte (number spellings included).
  JsonWriter& raw(std::string_view json);

  /// The document built so far. Valid once every container is closed.
  const std::string& str() const { return out_; }

  /// `"`-quoted JSON escaping of `raw` (quotes included).
  static std::string quoted(std::string_view raw);

 private:
  void prepare_for_value();
  void open(char bracket);
  void close(char bracket);

  struct Level {
    bool is_object = false;
    bool has_element = false;
  };
  std::string out_;
  std::vector<Level> stack_;
  bool after_key_ = false;
  bool compact_ = false;
};

/// Parsed JSON document. Object members keep their source order, so a
/// write → parse → inspect round trip sees fields exactly as emitted.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// A string's decoded text; for a number, its source spelling, so a
  /// parsed number can be re-emitted byte for byte (JsonWriter::raw).
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// Member lookup on objects; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
};

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected). Returns nullopt and fills `error` (when non-null)
/// with a position-annotated message on malformed input.
std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error = nullptr);

}  // namespace rdc::obs
