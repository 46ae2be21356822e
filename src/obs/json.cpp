#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace rdc::obs {

// --- writer --------------------------------------------------------------

std::string JsonWriter::quoted(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  out.push_back('"');
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        // Escape every control character: C0 as RFC 8259 requires, plus
        // DEL — raw control bytes in span/thread names broke downstream
        // Chrome-trace consumers (fuzz-derived corpus case).
        if (static_cast<unsigned char>(c) < 0x20 ||
            static_cast<unsigned char>(c) == 0x7f) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

void JsonWriter::prepare_for_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (stack_.empty()) return;
  Level& level = stack_.back();
  if (level.has_element) out_.push_back(',');
  const bool had_element = level.has_element;
  level.has_element = true;
  if (compact_) {
    if (had_element) out_.push_back(' ');
    return;
  }
  out_.push_back('\n');
  out_.append(2 * stack_.size(), ' ');
}

void JsonWriter::open(char bracket) {
  prepare_for_value();
  out_.push_back(bracket);
  stack_.push_back({bracket == '{', false});
}

void JsonWriter::close(char bracket) {
  const bool had_elements = !stack_.empty() && stack_.back().has_element;
  stack_.pop_back();
  if (had_elements && !compact_) {
    out_.push_back('\n');
    out_.append(2 * stack_.size(), ' ');
  }
  out_.push_back(bracket);
}

JsonWriter& JsonWriter::begin_object() {
  open('{');
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  close('}');
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  open('[');
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  close(']');
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  prepare_for_value();
  out_ += quoted(name);
  out_ += ": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  prepare_for_value();
  out_ += quoted(v);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  prepare_for_value();
  char buf[32];
  // Shortest round-trip representation; deterministic for a given double.
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec == std::errc()) {
    out_.append(buf, end);
  } else {
    out_ += "null";  // non-finite values have no JSON spelling
  }
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  prepare_for_value();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  prepare_for_value();
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out_.append(buf, end);
  (void)ec;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  prepare_for_value();
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out_.append(buf, end);
  (void)ec;
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  prepare_for_value();
  out_ += json;
  return *this;
}

// --- parser --------------------------------------------------------------

const JsonValue* JsonValue::find(std::string_view k) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object)
    if (name == k) return &value;
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse(std::string* error) {
    JsonValue root;
    if (!parse_value(root)) {
      if (error) *error = message_ + " at offset " + std::to_string(pos_);
      return std::nullopt;
    }
    skip_whitespace();
    if (pos_ != text_.size()) {
      if (error)
        *error = "trailing characters at offset " + std::to_string(pos_);
      return std::nullopt;
    }
    return root;
  }

 private:
  bool fail(const char* message) {
    if (message_.empty()) message_ = message;
    return false;
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal)
      return fail("invalid literal");
    pos_ += literal.size();
    return true;
  }

  /// Containers recurse through parse_value; without a depth cap a
  /// few-KB document of nothing but '[' overflows the stack (found by the
  /// fuzz harness). 128 is far deeper than any report this code emits.
  static constexpr unsigned kMaxDepth = 128;

  bool parse_value(JsonValue& out) {
    skip_whitespace();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parse_container(out, &Parser::parse_object);
      case '[': return parse_container(out, &Parser::parse_array);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return parse_string(out.string);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return consume_literal("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return consume_literal("false");
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        return consume_literal("null");
      default: return parse_number(out);
    }
  }

  bool parse_container(JsonValue& out, bool (Parser::*inner)(JsonValue&)) {
    if (depth_ >= kMaxDepth) return fail("nesting too deep");
    ++depth_;
    const bool ok = (this->*inner)(out);
    --depth_;
    return ok;
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_whitespace();
    if (consume('}')) return true;
    for (;;) {
      skip_whitespace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return fail("expected object key");
      if (!parse_string(key)) return false;
      skip_whitespace();
      if (!consume(':')) return fail("expected ':'");
      JsonValue value;
      if (!parse_value(value)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_whitespace();
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_whitespace();
    if (consume(']')) return true;
    for (;;) {
      JsonValue element;
      if (!parse_value(element)) return false;
      out.array.push_back(std::move(element));
      skip_whitespace();
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
              code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              return fail("invalid \\u escape");
          }
          // UTF-8 encode the BMP code point (we never emit surrogates).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return fail("invalid escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    out.kind = JsonValue::Kind::kNumber;
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return fail("invalid value");
    const auto [end, ec] = std::from_chars(text_.data() + start,
                                           text_.data() + pos_, out.number);
    if (ec != std::errc() || end != text_.data() + pos_)
      return fail("invalid number");
    out.string.assign(text_.substr(start, pos_ - start));
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string message_;
  unsigned depth_ = 0;
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error) {
  return Parser(text).parse(error);
}

}  // namespace rdc::obs
