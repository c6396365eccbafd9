// Minimal recursive-descent JSON reader, shared by the bench-regression
// comparator (sim/bench_compare.hpp), the tools/ CLI and the observability
// tests. Reads everything this repo emits (trace-event documents, metric
// objects, BENCH_*.json reports). \uXXXX escapes decode to real UTF-8
// (surrogate pairs included), numbers parse and render via
// std::from_chars/std::to_chars (locale-independent, so canonical
// renderings and FNV-1a digests are stable under any global locale), and
// digit-only tokens keep an exact 64-bit integer representation so
// protocol fields >= 2^53 round-trip without double rounding. Header-only
// so test binaries can use it without a link edge.
#pragma once

#include <cctype>
#include <charconv>
#include <cstdint>
#include <map>
#include <system_error>
#include <string>
#include <string_view>
#include <vector>

#include "common/strings.hpp"

namespace steersim {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  /// Exact payload carried alongside `number` for digit-only tokens: a
  /// double loses integers past 2^53, so cycle budgets and wall-clock
  /// fields keep their 64-bit value and render back digit-identical.
  enum class NumberRepr { kDouble, kU64, kI64 };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  NumberRepr repr = NumberRepr::kDouble;
  std::uint64_t u64 = 0;  ///< valid when repr == kU64
  std::int64_t i64 = 0;   ///< valid when repr == kI64 (negative integers)
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* get(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }

  /// Exact unsigned read: true when this is a number representable as
  /// u64 without rounding (integer-carried, or an integral double below
  /// 2^53 — anything bigger only exists as a digit-only token).
  bool as_u64(std::uint64_t& out) const {
    if (kind != Kind::kNumber) {
      return false;
    }
    switch (repr) {
      case NumberRepr::kU64:
        out = u64;
        return true;
      case NumberRepr::kI64:
        return false;  // negative
      case NumberRepr::kDouble:
        break;
    }
    if (number < 0.0 || number > 9007199254740992.0 ||
        number != static_cast<double>(static_cast<std::uint64_t>(number))) {
      return false;
    }
    out = static_cast<std::uint64_t>(number);
    return true;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!value(out)) {
      return false;
    }
    skip_ws();
    return pos_ == text_.size();  // no trailing garbage
  }

  /// Lenient streaming variant: parses the first top-level value and
  /// reports how many bytes it consumed (trailing whitespace included),
  /// leaving anything after it — e.g. the next message of a JSON-lines
  /// stream — for the caller.
  bool parse_prefix(JsonValue& out, std::size_t& consumed) {
    skip_ws();
    if (!value(out)) {
      return false;
    }
    skip_ws();
    consumed = pos_;
    return true;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }
  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  /// Consumes exactly four hex digits into `out`.
  bool hex4(std::uint32_t& out) {
    if (pos_ + 4 > text_.size()) {
      return false;
    }
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      std::uint32_t nibble = 0;
      if (c >= '0' && c <= '9') {
        nibble = static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        nibble = static_cast<std::uint32_t>(c - 'a') + 10;
      } else if (c >= 'A' && c <= 'F') {
        nibble = static_cast<std::uint32_t>(c - 'A') + 10;
      } else {
        return false;
      }
      out = (out << 4) | nibble;
    }
    pos_ += 4;
    return true;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  /// \uXXXX after the backslash: decodes to UTF-8, pairing surrogates.
  /// Lone or mismatched surrogates are malformed input and fail the parse
  /// (never a placeholder byte — round trips must be byte-identical).
  bool unicode_escape(std::string& out) {
    ++pos_;  // consume 'u'
    std::uint32_t cp = 0;
    if (!hex4(cp)) {
      return false;
    }
    if (cp >= 0xDC00 && cp <= 0xDFFF) {
      return false;  // low surrogate with no preceding high surrogate
    }
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u') {
        return false;
      }
      pos_ += 2;
      std::uint32_t low = 0;
      if (!hex4(low) || low < 0xDC00 || low > 0xDFFF) {
        return false;
      }
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    }
    append_utf8(out, cp);
    return true;
  }

  bool value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) {
      return false;
    }
    const char c = text_[pos_];
    if (c == '{') {
      return object(out);
    }
    if (c == '[') {
      return array(out);
    }
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return string(out.string);
    }
    if (literal("true")) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      return true;
    }
    if (literal("false")) {
      out.kind = JsonValue::Kind::kBool;
      return true;
    }
    if (literal("null")) {
      return true;
    }
    return number(out);
  }

  bool string(std::string& out) {
    if (!consume('"')) {
      return false;
    }
    while (pos_ < text_.size() && text_[pos_] != '"') {
      // Each maximal run of plain characters goes out in one append.
      std::size_t end = pos_;
      while (end < text_.size() && text_[end] != '"' && text_[end] != '\\') {
        ++end;
      }
      out.append(text_.data() + pos_, end - pos_);
      pos_ = end;
      if (pos_ < text_.size() && text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) {
          return false;
        }
        switch (text_[pos_]) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case 'r':
            out += '\r';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'u':
            if (!unicode_escape(out)) {
              return false;
            }
            continue;  // unicode_escape consumed its own characters
          default:
            return false;
        }
        ++pos_;
      }
    }
    return consume('"');
  }

  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) {
      return false;
    }
    out.kind = JsonValue::Kind::kNumber;
    std::string_view token = text_.substr(start, pos_ - start);

    // Digit-only tokens (optional leading '-') carry an exact 64-bit
    // integer next to the double approximation, so values past 2^53 render
    // back digit-identical.
    const bool negative = token.front() == '-';
    const std::string_view digits = negative ? token.substr(1) : token;
    const bool digit_only =
        !digits.empty() &&
        digits.find_first_not_of("0123456789") == std::string_view::npos;
    if (digit_only) {
      if (!negative) {
        std::uint64_t value = 0;
        const auto [ptr, ec] =
            std::from_chars(digits.data(), digits.data() + digits.size(),
                            value);
        if (ec == std::errc{} && ptr == digits.data() + digits.size()) {
          out.repr = JsonValue::NumberRepr::kU64;
          out.u64 = value;
          out.number = static_cast<double>(value);
          return true;
        }
      } else {
        std::int64_t value = 0;
        const auto [ptr, ec] =
            std::from_chars(token.data(), token.data() + token.size(), value);
        if (ec == std::errc{} && ptr == token.data() + token.size()) {
          out.repr = JsonValue::NumberRepr::kI64;
          out.i64 = value;
          out.number = static_cast<double>(value);
          return true;
        }
      }
      // Out-of-range integers fall through to the double path.
    }

    // Locale-independent float parse. std::from_chars rejects a leading
    // '+', which the scan (and the old strtod path) tolerated; strip it.
    if (token.front() == '+') {
      token.remove_prefix(1);
    }
    out.repr = JsonValue::NumberRepr::kDouble;
    out.number = 0.0;  // lenient like strtod: unparsable tokens read as 0
    (void)std::from_chars(token.data(), token.data() + token.size(),
                          out.number);
    return true;
  }

  bool array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    if (!consume('[')) {
      return false;
    }
    skip_ws();
    if (consume(']')) {
      return true;
    }
    while (true) {
      JsonValue element;
      if (!value(element)) {
        return false;
      }
      out.array.push_back(std::move(element));
      skip_ws();
      if (consume(']')) {
        return true;
      }
      if (!consume(',')) {
        return false;
      }
    }
  }

  bool object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    if (!consume('{')) {
      return false;
    }
    skip_ws();
    if (consume('}')) {
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!string(key)) {
        return false;
      }
      skip_ws();
      if (!consume(':')) {
        return false;
      }
      JsonValue val;
      if (!value(val)) {
        return false;
      }
      out.object.emplace(std::move(key), std::move(val));
      skip_ws();
      if (consume('}')) {
        return true;
      }
      if (!consume(',')) {
        return false;
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Strict entry point for wire protocols (src/svc): `text` must be exactly
/// one JSON value — trailing garbage is rejected, so a frame holding
/// `{"a":1}{"b":2}` can never be mistaken for one message.
inline bool parse_json_strict(std::string_view text, JsonValue& out) {
  return JsonParser(text).parse(out);
}

/// Lenient entry point for streams: parses the first top-level value,
/// returns the byte count consumed so the caller can resume after it.
inline bool parse_json_prefix(std::string_view text, JsonValue& out,
                              std::size_t& consumed) {
  return JsonParser(text).parse_prefix(out, consumed);
}

/// Canonical re-serialization: object keys in sorted (std::map) order,
/// numbers via json_number's round-trip rendering, strings escaped. Two
/// JsonValues parsed from equivalent documents render identically, which
/// is what the service protocol's bit-identical cache-hit replies and the
/// round-trip tests compare.
inline std::string render_json(const JsonValue& value) {
  std::string out;
  switch (value.kind) {
    case JsonValue::Kind::kNull:
      out = "null";
      break;
    case JsonValue::Kind::kBool:
      out = value.boolean ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber:
      switch (value.repr) {
        case JsonValue::NumberRepr::kU64:
          out = std::to_string(value.u64);
          break;
        case JsonValue::NumberRepr::kI64:
          out = std::to_string(value.i64);
          break;
        case JsonValue::NumberRepr::kDouble:
          out = json_number(value.number);
          break;
      }
      break;
    case JsonValue::Kind::kString:
      out += '"';
      append_json_escaped(out, value.string);
      out += '"';
      break;
    case JsonValue::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const JsonValue& element : value.array) {
        if (!first) {
          out += ',';
        }
        first = false;
        out += render_json(element);
      }
      out += ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : value.object) {
        if (!first) {
          out += ',';
        }
        first = false;
        out += '"';
        append_json_escaped(out, key);
        out += "\":";
        out += render_json(member);
      }
      out += '}';
      break;
    }
  }
  return out;
}

}  // namespace steersim
